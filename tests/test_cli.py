"""End-to-end checks of the command line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from celestial import exact, verify
from celestial.cli import main
from celestial.exact import Matrix, gauss


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_single_check(capsys):
    code, out = _run(capsys, "verify", "--only", "lemma-i2")
    assert code == 0
    assert "PASS" in out
    assert "a:20" in out and "h:1" in out


def test_verify_unknown_check_is_an_error(capsys):
    code = main(["verify", "--only", "does-not-exist"])
    assert code == 2


def test_verify_json_schema(capsys):
    code, out = _run(capsys, "verify", "--only", "dynkin-singularities", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"pass": 1, "fail": 0}
    entry = payload["entries"][0]
    assert entry["check_id"] == "dynkin-singularities"
    assert entry["status"] == "pass"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sample", "--surface", "klein-bottle", "--out", "/tmp/x.csv"])
    assert err.value.code == 2


def test_classify_lattice_json(capsys):
    code, out = _run(capsys, "classify-lattice", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 8
    assert [item["table_ref"] for item in payload] == list("abcdefgh")
    ring = next(item for item in payload if item["name"] == "ring cyclide")
    assert ring["counts"] == {"i": 1, "b": 4, "d": 4}
    assert len(ring["directions"]) == 4


def test_classify_lattice_raw(capsys):
    code, out = _run(capsys, "classify-lattice", "--json", "--raw")
    payload = json.loads(out)
    assert len(payload) == 10
    merged = [item for item in payload if item["merges_with"]]
    assert len(merged) == 2
    assert all(item["merges_with"] == "a" for item in merged)


def test_family_row_one(capsys):
    code, out = _run(capsys, "family", "--coeffs", "1,1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == [2, 8, 7]
    assert payload["moduli_dim"] == 3
    assert payload["group"] == "PSO(2)xPSO(2)"
    assert payload["moebius_equals_aut"] is False


def test_family_ring(capsys):
    code, out = _run(capsys, "family", "--coeffs", "0,1,0,1", "--json")
    payload = json.loads(out)
    assert payload["type"] == [4, 4, 3]
    assert payload["singular"] == "A1+A1+A1+A1"


def test_family_rejects_bad_input(capsys):
    code = main(["family", "--coeffs", "1,bananas,0,1"])
    assert code == 2
    assert "bananas" in _one_line_error(capsys)
    code = main(["family", "--coeffs", "1,-1,1,1"])
    assert code == 2


def test_invariant_forms_named_algebra(capsys):
    code, out = _run(
        capsys, "invariant-forms", "--algebra", "so2xso2", "--ambient", "segre",
        "--sigma", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["y"]["basis"]) == 4
    assert len(payload["x"]["basis"]) == 4
    assert payload["x"]["frame"] == "x"
    assert all(len(form) == 81 for form in payload["y"]["basis"])


def test_invariant_forms_veronese(capsys):
    code, out = _run(
        capsys, "invariant-forms", "--algebra", "so3", "--ambient", "veronese", "--json"
    )
    payload = json.loads(out)
    assert len(payload["y"]["basis"]) == 1
    assert all(len(form) == 36 for form in payload["y"]["basis"])


def test_invariant_forms_from_json_file(tmp_path, capsys):
    algebra = {
        "elements": [
            [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        ]
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    code, out = _run(
        capsys, "invariant-forms", "--algebra", str(path), "--ambient", "segre", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["y"]["basis"]) == 10


def test_sample_csv_and_ply(tmp_path, capsys):
    out_csv = tmp_path / "ring.csv"
    code, out = _run(
        capsys, "sample", "--surface", "ring", "--resolution", "4",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 1 + 16

    out_ply = tmp_path / "spindle.ply"
    code, out = _run(
        capsys, "sample", "--surface", "spindle", "--resolution", "6",
        "--out", str(out_ply), "--format", "ply",
    )
    assert code == 0
    content = out_ply.read_text().splitlines()
    assert content[0] == "ply"
    # both poles of the angle-to-line substitution are skipped per row
    assert content[2] == "element vertex 24"


def test_sample_with_projection_file(tmp_path, capsys):
    proj = tmp_path / "proj.txt"
    proj.write_text("1 0 0 0\n0 1 0 0\n0 0 1 1\n")
    out_csv = tmp_path / "ring.csv"
    code, _ = _run(
        capsys, "sample", "--surface", "ring", "--resolution", "3",
        "--proj", str(proj), "--out", str(out_csv),
    )
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 10


def test_outputs_are_byte_stable(capsys):
    _, first = _run(capsys, "verify", "--only", "rigidity-sampling", "--seed", "7", "--json")
    _, second = _run(capsys, "verify", "--only", "rigidity-sampling", "--seed", "7", "--json")
    assert first == second
    _, third = _run(capsys, "classify-lattice", "--json")
    _, fourth = _run(capsys, "classify-lattice", "--json")
    assert third == fourth


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--surface", "ring", "--resolution", "5", "--proj", "{missing}",
         "--out", "{tmp}/x.csv"],
        ["sample", "--surface", "ring", "--resolution", "5", "--out", "{missing}/x.csv"],
        ["invariant-forms", "--algebra", "{missing}", "--ambient", "segre"],
        ["invariant-forms", "--algebra", "{missing}", "--ambient", "veronese"],
    ],
    ids=["missing-proj", "unwritable-out", "missing-algebra", "missing-veronese-algebra"],
)
def test_file_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    missing = str(tmp_path / "does-not-exist")
    code = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
    assert code == 2
    assert "does-not-exist" in _one_line_error(capsys)


_ALGEBRA = ["invariant-forms", "--algebra", "{path}"]
_PROJ = ["sample", "--surface", "ring", "--resolution", "5", "--proj", "{path}", "--out", "{tmp}/x.csv"]


@pytest.mark.parametrize(
    "data, argv, needle",
    [
        (b"not json\n", _ALGEBRA, "Expecting value"),
        (b"\xff\xfe{}", _ALGEBRA, "can't decode"),
        (b"a b c\n1 2 3\n0 0 1\n", _PROJ, "could not convert"),
        (b"\xff 0 0\n0 1 0\n0 0 1\n", _PROJ, "can't decode"),
        (b"1 0 0 0\n0 1 0 0\n", _PROJ, "exactly 3 rows"),
        (b"1 0 0 0\n0 1 0 0\n0 0 1 nan\n", _PROJ, "must be finite"),
        (b'{"elements": [[[["0", "1"], ["0", "0"]]]]}', _ALGEBRA, "is not a [left, right] pair"),
        (b'{"elements": [[[[1.5, 0], [0, 0]], [[0, 0], [0, 0]]]]}', _ALGEBRA, "neither an integer"),
        (b'{"elements": [[[["1/0", 0], [0, 0]], [[0, 0], [0, 0]]]]}', _ALGEBRA, "divides by zero"),
        (b'{"elements": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}', _ALGEBRA, "traceless"),
        (b'{"elements": [[[0, 1], [0, 0], [0, 0]]]}', [*_ALGEBRA, "--ambient", "veronese"], "is not a 3x3 matrix"),
    ],
    ids=[
        "algebra-not-json", "algebra-not-utf8", "proj-not-numbers", "proj-not-utf8", "proj-two-rows",
        "proj-not-finite", "algebra-not-a-pair", "algebra-float-entry", "algebra-zero-denominator",
        "algebra-trace", "veronese-3x2",
    ],
)
def test_unparsable_input_files_are_named_in_the_error(tmp_path, capsys, data, argv, needle):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([a.format(path=path, tmp=tmp_path) for a in argv]) == 2
    err = _one_line_error(capsys)
    assert err.startswith(f"error: {path}: ") and needle in err
    assert not (tmp_path / "x.csv").exists()


def test_crashing_check_names_type_and_place(monkeypatch):
    from celestial import verify

    def crash(seed):
        return {}["missing"]

    monkeypatch.setattr(verify, "CHECKS", (("boom", "a check that raises", crash),))
    (result,) = verify.run_checks()
    assert not result.ok
    assert re.fullmatch(r"KeyError: 'missing' @ test_cli\.py:\d+", result.detail)


_PAIR = [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]


@pytest.mark.parametrize(
    "ambient, content",
    [
        ("segre", {"x": 1}),
        ("segre", [1, 2]),
        ("segre", {"elements": 5}),
        ("segre", {"elements": [1]}),
        ("segre", {"elements": [[[[1.5, 0], [0, 0]], [[0, 0], [0, 0]]]]}),
        ("segre", {"elements": [[[["1/0", 0], [0, 0]], [[0, 0], [0, 0]]]]}),
        ("segre", {"elements": [[[[True, 0], [0, 0]], [[0, 0], [0, 0]]]]}),
        ("segre", {"elements": [[[["0", "1-+2"], ["0", "0"]], [[0, 0], [0, 0]]]]}),
        ("segre", {"elements": [_PAIR[0]]}),
        ("segre", {"elements": [[_PAIR[0], _PAIR[1][:1]]]}),
        ("veronese", {"x": 1}),
        ("veronese", {"elements": [1]}),
        ("veronese", {"elements": [[[0, 1, 0], [0, 0, 0]]]}),
        ("veronese", {"elements": [[[0, 1], [0, 0], [0, 0]]]}),
        ("veronese", {"elements": [[[0, 1.5, 0], [0, 0, 0], [0, 0, 0]]]}),
        ("veronese", {"elements": [_PAIR]}),
    ],
    ids=[
        "no-elements", "not-an-object", "elements-not-a-list", "element-not-a-pair",
        "float-entry", "zero-denominator", "bool-entry", "stray-sign", "lone-matrix", "short-row",
        "veronese-no-elements", "veronese-element-not-a-matrix", "veronese-2x3",
        "veronese-3x2", "veronese-float-entry", "veronese-segre-pair",
    ],
)
def test_malformed_algebra_file_exits_2_with_one_line(tmp_path, capsys, ambient, content):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(content))
    code = main(["invariant-forms", "--algebra", str(path), "--ambient", ambient])
    assert code == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_a_non_finite_projection_entry_exits_2_with_one_line(tmp_path, capsys, entry):
    proj = tmp_path / "proj.txt"
    proj.write_text(f"1 0 0 0\n0 1 0 0\n0 0 1 {entry}\n")
    out_csv = tmp_path / "ring.csv"
    code = main(["sample", "--surface", "ring", "--resolution", "3",
                 "--proj", str(proj), "--out", str(out_csv)])
    assert code == 2
    assert "must be finite" in _one_line_error(capsys)
    assert not out_csv.exists()


_ROOT = Path(__file__).resolve().parents[1]
_VERIFY_REFERENCE = _ROOT / "bench" / "reference" / "verify_seed0.json"


def test_full_verify_json_matches_the_reference_bytes(capsys):
    code, out = _run(capsys, "verify", "--json", "--seed", "0")
    assert code == 0
    assert out == _VERIFY_REFERENCE.read_text()


@pytest.mark.parametrize("seed", [1, 3, 17])
def test_other_seeds_give_the_same_verify_bytes(capsys, seed):
    # no detail prints a seeded value, so the random streams may change
    # only what is checked, never the output
    code, out = _run(capsys, "verify", "--json", "--seed", str(seed))
    assert code == 0
    assert out == _VERIFY_REFERENCE.read_text()


def test_verify_timings_add_one_field_and_one_column(capsys):
    code, out = _run(capsys, "verify", "--only", "dynkin-singularities", "--json", "--timings")
    assert code == 0
    (entry,) = json.loads(out)["entries"]
    assert set(entry) == {"check_id", "ref", "status", "detail", "elapsed_s"}
    assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0
    _, plain = _run(capsys, "verify", "--only", "dynkin-singularities")
    code, timed = _run(capsys, "verify", "--only", "dynkin-singularities", "--timings")
    assert code == 0
    line, plain_line = timed.splitlines()[0], plain.splitlines()[0]
    # "PASS", two spaces, the id padded to 24 and a space, then the seconds column
    assert re.fullmatch(r" *\d+\.\d{3}s  ", line[31:41])
    assert line[:31] + line[41:] == plain_line
    assert timed.splitlines()[1:] == plain.splitlines()[1:]


def test_full_suite_timings_come_back_from_every_check(capsys):
    # the full suite runs across forked workers; each entry carries the wall
    # time measured in the process that ran its check
    code, out = _run(capsys, "verify", "--json", "--timings")
    assert code == 0
    payload = json.loads(out)
    ids = [check_id for check_id, _, _ in verify.CHECKS]
    assert [entry["check_id"] for entry in payload["entries"]] == ids
    for entry in payload["entries"]:
        assert set(entry) == {"check_id", "ref", "status", "detail", "elapsed_s"}
        assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] > 0
        del entry["elapsed_s"]
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == _VERIFY_REFERENCE.read_text()

    code, timed = _run(capsys, "verify", "--timings")
    assert code == 0
    _, plain = _run(capsys, "verify")
    lines = timed.splitlines()
    assert [line[6:30].rstrip() for line in lines[:-1]] == ids
    assert all(re.fullmatch(r" *\d+\.\d{3}s  ", line[31:41]) for line in lines[:-1])
    assert [line[:31] + line[41:] for line in lines[:-1]] + lines[-1:] == plain.splitlines()


def test_importing_the_cli_loads_no_process_machinery():
    # a fresh interpreter, since this one has loaded the test tooling; each of
    # these would add to the start-up of every command, and dataclasses alone
    # (with inspect, which it imports) took about 10 ms of an 18 ms import.
    # Only modules new after start-up count, whatever a site hook loads.
    heavy = ["multiprocessing", "concurrent.futures", "pickle", "subprocess", "dataclasses", "inspect"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "def loaded(): return [m for m in HEAVY if m in sys.modules and m not in before]\n"
        "import celestial.cli\n"
        "imported = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = celestial.cli.main(['verify', '--json'])\n"
        "print(imported, code, len(out.getvalue()) > 0, loaded())\n"
    ).replace("HEAVY", repr(heavy))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[] 0 True []\n")


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["family", "--coeffs", "1,1,1"], "four coefficients"),
        (["family", "--coeffs", "1,1,1,1,1"], "four coefficients"),
        (["family", "--coeffs", "0,0,0,0"], "must not all vanish"),
        (["family", "--coeffs", "1/0,1,1,1"], "zero denominator"),
        (["invariant-forms", "--algebra", "so3", "--ambient", "veronese", "--sigma", "1"],
         "sigma 0"),
    ],
    ids=["three-coeffs", "five-coeffs", "all-zero", "zero-denominator", "veronese-sigma"],
)
def test_bad_values_exit_2_with_one_line(capsys, argv, needle):
    assert main(argv) == 2
    assert needle in _one_line_error(capsys)


@pytest.mark.parametrize(
    "name, ambient, accepted",
    [
        ("so3", "segre", "so2xso2, so2xsx1, so2xse1, sl2xsl2"),
        ("sl3", "segre", "so2xso2, so2xsx1, so2xse1, sl2xsl2"),
        ("so2xso2", "veronese", "so3, sl3"),
        ("sl2xsl2", "veronese", "so3, sl3"),
    ],
)
def test_algebra_of_the_other_ambient_names_the_accepted_ones(capsys, name, ambient, accepted):
    code = main(["invariant-forms", "--algebra", name, "--ambient", ambient])
    assert code == 2
    err = _one_line_error(capsys)
    assert repr(name) in err and accepted in err and "No such file" not in err


def test_classify_lattice_text(capsys):
    code, out = _run(capsys, "classify-lattice")
    assert code == 0
    assert out.splitlines() == [
        "a    dS                 i=1 b=8 d=8  circles: down right",
        "b    dP6                i=1 b=6 d=6  circles: down down-right right",
        "c    weak dP6           i=1 b=6 d=6  circles: down right",
        "d    Veronese surface   i=0 b=6 d=4  circles: down down-right right",
        "e    ring cyclide       i=1 b=4 d=4  circles: down down-right right down-left",
        "f    spindle cyclide    i=1 b=4 d=4  circles: down right",
        "g    horn cyclide       i=1 b=4 d=4  circles: down right",
        "h    2-sphere           i=0 b=4 d=2  circles: down-right down-left",
    ]


def test_family_text(capsys):
    code, out = _run(capsys, "family", "--coeffs", "1,1,0,1")
    assert code == 0
    assert out.splitlines() == [
        "dP6: type (3,6,5)",
        "  singular locus : smooth",
        "  symmetry group : PSO(2)xPSO(2)",
        "  moduli dim     : 2",
        "  group is full  : True",
    ]


def test_invariant_forms_text(capsys):
    code, out = _run(capsys, "invariant-forms", "--algebra", "so2xso2", "--sigma", "2")
    assert code == 0
    assert out.splitlines() == [
        "frame y: 4 generator(s)",
        "  (1)*y0^2 + (-1)*y7*y8",
        "  (2)*y1*y2 + (-2)*y7*y8",
        "  (2)*y3*y4 + (-2)*y7*y8",
        "  (2)*y5*y6 + (-2)*y7*y8",
        "frame x: 4 generator(s)",
        "  (1/4)*x0^2 + (-1)*x7^2 + (-1)*x8^2",
        "  (2)*x1^2 + (2)*x2^2 + (-2)*x7^2 + (-2)*x8^2",
        "  (2)*x3^2 + (2)*x4^2 + (-2)*x7^2 + (-2)*x8^2",
        "  (2)*x5^2 + (2)*x6^2 + (-2)*x7^2 + (-2)*x8^2",
    ]


# cases.json lists each recorded command with its exit code, its stderr and
# the file holding its stdout (null for no output); an --algebra value that
# names a file in the reference directory is read from there
_INVARIANT_FORMS_REFERENCE = Path(__file__).resolve().parent / "reference" / "invariant_forms"
_INVARIANT_FORMS_CASES = json.loads((_INVARIANT_FORMS_REFERENCE / "cases.json").read_text())


def test_invariant_forms_json_matches_the_reference_bytes(capsys):
    # both frames, each with its "frame" key taken from the key it is listed under
    code = main(["invariant-forms", "--algebra", "so2xsx1", "--sigma", "1", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (_INVARIANT_FORMS_REFERENCE / "so2xsx1_sigma1.json").read_text()
    payload = json.loads(captured.out)
    assert {k: v["frame"] for k, v in payload.items()} == {"x": "x", "y": "y"}


def _case_id(case) -> str:
    argv = case["argv"]
    name = argv[2].removesuffix(".json")
    return name + (f"-sigma{argv[argv.index('--sigma') + 1]}" if "--sigma" in argv else "")


def _resolved(argv):
    return [
        str(_INVARIANT_FORMS_REFERENCE / a) if (_INVARIANT_FORMS_REFERENCE / a).is_file() else a
        for a in argv
    ]


@pytest.mark.parametrize("case", _INVARIANT_FORMS_CASES, ids=map(_case_id, _INVARIANT_FORMS_CASES))
def test_invariant_forms_output_matches_the_recorded_bytes(capsys, case):
    code = main(_resolved(case["argv"]))
    captured = capsys.readouterr()
    stdout = (_INVARIANT_FORMS_REFERENCE / case["stdout"]).read_text() if case["stdout"] else ""
    assert (code, captured.err) == (case["code"], case["stderr"])
    assert captured.out == stdout


_CERTIFY_FROM_ROWS = """
import contextlib, io, json, sys
from celestial import cli, verify
from celestial.segre import FormSpan

built, from_rows = [], FormSpan.from_rows.__func__


def recording(cls, coeffs, *, coords):
    built.append(coeffs)
    return from_rows(cls, coeffs, coords=coords)


FormSpan.from_rows = classmethod(recording)
# one check at a time, so that none runs in a forked worker, whose spans
# this process would never see
ok = all(r.ok for check_id, _, _ in verify.CHECKS for r in verify.run_checks(only=check_id))
verify_spans = len(built)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"ok": ok, "codes": codes, "verify_spans": verify_spans,
                  "spans": [[c.rank(), c.rows] for c in built]}))
"""


def test_every_span_built_from_rows_has_full_row_rank():
    # FormSpan.from_rows checks no rank, so certify it on every span that verify
    # and the recorded invariant-forms cases build; a fresh process, so that the
    # cached toric spans are built under the wrapper too
    cases = [_resolved(case["argv"]) for case in _INVARIANT_FORMS_CASES]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CERTIFY_FROM_ROWS, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["ok"] and report["codes"] == [case["code"] for case in _INVARIANT_FORMS_CASES]
    assert report["verify_spans"] == 26  # every span the eleven checks build
    sizes = {rows for _, rows in report["spans"]}
    # I2, the Veronese quadrics, the family span and the empty sl3 solve among them
    assert {20, 6, 4, 0} <= sizes
    assert all(rank == rows for rank, rows in report["spans"])


_CHECK_SIGNATURES = """
import json
from celestial import exact, forms, geometry, verify
from oracles import oracle_congruence_diagonal

seen = {"forms": [], "geometry": [], "verify": []}


def recording(name):
    def checked(a):
        sig = exact.signature(a)
        seen[name].append((a, sig))
        return sig
    return checked


def recording_members(moebius_pair):
    # a family member's inertia is read off its diagonal sums, with no signature call
    def checked(c):
        sig = moebius_pair(c)
        seen["forms"].append((forms.family_form(c, "x").matrix, sig))
        return sig
    return checked


for module in (geometry, verify):
    module.signature = recording(module.__name__.rpartition(".")[2])
forms.moebius_pair = recording_members(forms.moebius_pair)
# one check at a time, so that none runs in a forked worker
ok = all(r.ok for check_id, _, _ in verify.CHECKS for r in verify.run_checks(only=check_id))
wrong, sizes = [], set()
for name, calls in seen.items():
    for a, sig in calls:
        diag = oracle_congruence_diagonal(a.entries())
        pos, neg = sum(x > 0 for x in diag), sum(x < 0 for x in diag)
        if exact.Signature(pos, neg, a.rows - pos - neg).normalized() != sig:
            wrong.append([name, str(a.entries()), str(sig)])
        sizes.add(a.rows)
print(json.dumps({"ok": ok, "counts": {name: len(calls) for name, calls in seen.items()},
                  "wrong": wrong, "sizes": sorted(sizes)}))
"""


def test_every_signature_verify_computes_is_the_fraction_oracles_inertia():
    # wrap signature where geometry and verify bind it, and the family inertia
    # of forms.moebius_pair, in a fresh process, and count the signs of the
    # rational elimination of each matrix
    env = dict(os.environ)
    paths = (str(_ROOT / "src"), str(_ROOT / "tests"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK_SIGNATURES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["ok"] and report["wrong"] == []
    assert report["counts"] == {"forms": 12, "geometry": 10, "verify": 45}
    assert report["sizes"] == [3, 4, 5, 6, 9]  # the family members are 9x9


_CHECK_KERNELS = """
import json
from celestial import cli, exact, forms, geometry, lattice, liealg, sampling, segre, verify
from oracles import kernel_witness_errors

kernel, seen = exact.kernel, []


def recording(m):
    k = kernel(m)
    seen.append((m, k))
    return k


# every module that binds exact.kernel, exact itself (solve reads it there) among them
bound = [mod for mod in (cli, exact, forms, geometry, lattice, liealg, sampling, segre, verify)
         if getattr(mod, "kernel", None) is kernel]
for mod in bound:
    mod.kernel = recording
counts, wrong, shapes = {}, [], set()
ok = True
for check_id, _, _ in verify.CHECKS:  # one check at a time, so that none runs in a forked worker
    start = len(seen)
    ok = all(r.ok for r in verify.run_checks(only=check_id)) and ok
    counts[check_id] = len(seen) - start
for m, k in seen:
    wrong.extend(f"{m.rows}x{m.cols}: {e}" for e in kernel_witness_errors(m, k))
    shapes.add((m.cols, m.cols - k.rows))
print(json.dumps({"ok": ok, "bound": sorted(mod.__name__ for mod in bound), "counts": counts,
                  "wrong": wrong, "ranks": sorted(shapes)}))
"""


def test_every_kernel_verify_computes_has_a_checked_witness():
    # wrap exact.kernel wherever a module binds it, in a fresh process so
    # that the cached pieces are built under the wrapper, and check each
    # basis K of M in Fraction arithmetic: M K^T = 0, K is the identity at
    # the free columns, and it has cols - rank(M) rows
    env = dict(os.environ)
    paths = (str(_ROOT / "src"), str(_ROOT / "tests"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK_KERNELS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["wrong"] == []
    assert report["ok"]
    assert report["bound"] == ["celestial.exact", "celestial.liealg"]
    # the Casimir split of I2 and the real bases of the cyclides and the sampled pairs
    assert {name: n for name, n in report["counts"].items() if n} == {
        "invariant-forms": 4, "cyclide-pipeline": 4, "rigidity-sampling": 3,
    }
    # (cols, rank): the I2 pieces are kernels of a 20-column Casimir system
    assert {(20, 15), (20, 11), (20, 19)} <= {tuple(shape) for shape in report["ranks"]}


def test_the_kernel_witness_check_refuses_a_row_not_killed_and_a_dropped_row():
    from oracles import kernel_witness_errors

    m = Matrix([[1, 2, 0, 1], [0, 0, 1, gauss("i")], [1, 2, 1, gauss("1+i")]])
    k = exact.kernel(m)
    assert k.rows == 2 and kernel_witness_errors(m, k) == []
    rows = k.entries()
    not_killed = Matrix([rows[0], [x + 1 if j == 0 else x for j, x in enumerate(rows[1])]])
    assert any("does not kill" in e for e in kernel_witness_errors(m, not_killed))
    assert any("free columns" in e for e in kernel_witness_errors(m, Matrix([rows[0]])))
    scaled = Matrix([rows[0], [2 * x for x in rows[1]]])  # still killed, but not 1 at its free column
    assert kernel_witness_errors(m, scaled) == ["row 1 of K is not 1 at free column 3 and 0 at the others"]
