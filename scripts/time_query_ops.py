#!/usr/bin/env python3
"""Time the library calls of the benchmark's query stream in this process, per kind of op.

Reads the first --ops operations of the seeded `query` stream from
bench/streams.py (imported, never written), builds their inputs once, and
runs them in stream order --repeat times after one untimed pass that builds
the caches.  Prints the best of those runs in microseconds per op for the
family ops (`forms.classify_family`) and for the invariant-form ops
(`liealg.invariant_forms` on I2) with one, two and three elements, and a
`stream` line over all the ops in the stream's own mix, whose inverse is
what the benchmark's `query` `ref_work_per_s` measures.  Only the library
call is timed, as the benchmark times it: the inputs, a family op's
`FamilyCoeffs` among them, are built before the clock starts, and no output
check or fresh process is timed.

    PYTHONPATH=src python3 scripts/time_query_ops.py --seed 13 --ops 4000 --repeat 7
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import streams  # noqa: E402

from celestial import forms, liealg  # noqa: E402
from celestial.exact import GaussianRational, Matrix  # noqa: E402
from celestial.segre import i2_segre  # noqa: E402


def _matrix(rows) -> Matrix:
    return Matrix([[GaussianRational(re, im) for re, im in row] for row in rows])


def _calls(seed: int, n: int):
    """(kind, call) for the first n ops of the stream; an invalid family vector still counts."""
    ambient = i2_segre()
    ops = streams.query_ops(seed)
    out = []
    for _ in range(n):
        op = next(ops)
        if op[0] == "family":
            member = forms.FamilyCoeffs(*op[2])  # built untimed, as the benchmark builds it

            def call(member=member):
                try:
                    forms.classify_family(member)
                except ValueError:  # mixed signs or three zeros: rejected, as the stream intends
                    pass

            out.append(("family", call))
        else:
            algebra = tuple(liealg.LieElement(_matrix(left), _matrix(right)) for left, right in op[1])
            out.append((f"invariant/{len(algebra)}", lambda a=algebra: liealg.invariant_forms(a, ambient)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ops", type=int, default=4000)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    if args.ops < 1 or args.repeat < 1:
        parser.error("--ops and --repeat must be positive")

    calls = _calls(args.seed, args.ops)
    for _, call in calls:  # builds the tables and caches once
        call()
    best = {}
    for _ in range(args.repeat):
        totals = {}
        for kind, call in calls:
            start = time.perf_counter()
            call()
            totals[kind] = totals.get(kind, 0.0) + time.perf_counter() - start
        totals["stream"] = sum(totals.values())
        for kind, total in totals.items():
            best[kind] = min(best.get(kind, total), total)

    counts = {"stream": len(calls)}
    for kind, _ in calls:
        counts[kind] = counts.get(kind, 0) + 1
    print(f"seed {args.seed}, first {args.ops} query ops, best of {args.repeat}, us per op")
    for kind in ("family", "invariant/1", "invariant/2", "invariant/3", "stream"):
        if kind in counts:
            print(f"{kind:<12} {counts[kind]:>6} ops {best[kind] / counts[kind] * 1e6:>10.1f}")


if __name__ == "__main__":
    main()
