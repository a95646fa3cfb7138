"""Record the correctness references of the benchmark from the current program.

    PYTHONPATH=src python3 bench/record_reference.py

Writes `bench/reference/verify_seed0.json` (the bytes of
`celestial verify --json --seed 0`) and `bench/reference/results.json` (the
suite's check ids, the classification record of each support class, and
the digests of the default-seed query and sample gates).  Run it only on a
commit whose results are known to be right; the stored files were recorded
at the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import gate
import worker

# one member of each support class of the family
SUPPORT_REPRESENTATIVES = ((1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (0, 0, 1, 1))


def main() -> int:
    from celestial import cli, forms

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(["verify", "--json", "--seed", "0"]) != 0:
            print("verify fails at this commit; nothing recorded", file=sys.stderr)
            return 1
    verify_bytes = out.getvalue().encode()
    records = {}
    for coeffs in SUPPORT_REPRESENTATIVES:
        rec = forms.classify_family(forms.FamilyCoeffs(*coeffs)).to_json()
        records[rec["name"]] = rec

    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    with open(gate.VERIFY_REFERENCE, "wb") as fh:
        fh.write(verify_bytes)
    results = {
        "verify_check_ids": [e["check_id"] for e in json.loads(verify_bytes)["entries"]],
        "family_records": records,
        "digests": {},
    }
    with open(gate.RESULTS_REFERENCE, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    # the gates read the records written above
    results["digests"]["query"] = worker.QueryRunner().gate_digest().hexdigest()
    with tempfile.TemporaryDirectory(dir=gate.REFERENCE_DIR) as tmp:
        results["digests"]["sample"] = worker.SampleRunner(tmp).gate_digest().hexdigest()
    with open(gate.RESULTS_REFERENCE, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {gate.VERIFY_REFERENCE} and {gate.RESULTS_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
