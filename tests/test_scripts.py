"""The command line scripts under scripts/ run to completion on small inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args, expect, files",
    [
        ("scan_family_grid.py", ["--max-height", "1"], "admissible coefficient vectors", []),
        ("print_invariant_tables.py", [], "== classification records ==", []),
        ("export_surface_clouds.py", ["--resolution", "4", "--out-dir", "clouds"], "dp6 dense",
         ["clouds/dp6_dense.csv", "clouds/ring.ply"]),
        ("time_query_ops.py", ["--seed", "7", "--ops", "8", "--repeat", "1"], "invariant/", []),
    ],
)
def test_script_exits_0(tmp_path, name, args, expect, files):
    proc = _run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    assert all((tmp_path / f).is_file() for f in files)


def test_print_invariant_tables_matches_the_reference_bytes(tmp_path):
    # the x-frame tables pass through real_basis, so they pin apply_sigma
    # for sigma 0, 1 and 2 as well
    proc = _run_script("print_invariant_tables.py", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (ROOT / "tests" / "reference" / "print_invariant_tables.txt").read_text()


def test_scan_family_grid_matches_the_reference_bytes(tmp_path):
    # 72 admissible vectors through classify_family: the record of every
    # support pattern, with coefficients of height up to 2
    proc = _run_script("scan_family_grid.py", "--max-height", "2", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (ROOT / "tests" / "reference" / "scan_family_grid_h2.txt").read_text()


def test_time_query_ops_prints_a_stream_line(tmp_path):
    # the stream line covers every op in the stream's own mix, the inverse
    # of what the benchmark's query ref_work_per_s measures
    proc = _run_script("time_query_ops.py", "--seed", "7", "--ops", "8", "--repeat", "1", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "seed 7, first 8 query ops, best of 1, us per op"
    assert lines[-1].split()[:3] == ["stream", "8", "ops"]
    assert sum(int(line.split()[1]) for line in lines[1:-1]) == 8


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summarizes_each_metric_by_its_better_side():
    summarize = _bench_pairs().summarize
    # ref_work_per_s: higher is better; the change is ahead in 3 of 4 pairs, tied in one
    s = summarize([(100, 110), (104, 120), (96, 96), (100, 130)], "higher")
    assert s["parent"] == (99.0, 100.0, 101.0) and s["change"] == (106.5, 115.0, 122.5)
    assert (s["ahead"], s["pairs"], s["shift"], s["spread"]) == (3, 4, 15.0, 2.0)
    assert s["relative"] == 0.15
    # setup_s: lower is better, so a rise is a negative shift and the change is ahead nowhere
    s = summarize([(0.05, 0.06), (0.07, 0.08), (0.06, 0.07)], "lower")
    assert s["parent"][1] == 0.06 and s["ahead"] == 0 and s["shift"] < 0 < s["spread"]
    # one pair: its values are all three quartiles
    s = summarize([(1.0, 1.0)], "higher")
    assert s["parent"] == s["change"] == (1.0, 1.0, 1.0) and (s["ahead"], s["shift"], s["spread"]) == (0, 0.0, 0.0)
    with pytest.raises(ValueError):
        summarize([(1.0, 2.0)], "faster")
    with pytest.raises(ValueError):
        summarize([], "higher")


def test_bench_pairs_reads_the_end_to_end_metrics_of_the_benchmark():
    assert _bench_pairs()._end_to_end() == [
        ("setup_s", "lower"), ("peak_rss_mb", "lower"), ("success_rate", "higher"), ("ref_work_per_s", "higher")
    ]


def test_time_query_ops_builds_each_family_member_before_the_clock(monkeypatch):
    # the benchmark's query worker builds FamilyCoeffs outside its timer, so
    # a timed family call must be classify_family alone
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on it
    spec = importlib.util.spec_from_file_location("time_query_ops", ROOT / "scripts" / "time_query_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = module._calls(7, 40)
    assert sum(kind == "family" for kind, _ in calls) == 30

    def built(*args):
        raise AssertionError("a family member was built inside the timed call")

    monkeypatch.setattr(module.forms, "FamilyCoeffs", built)
    for _, call in calls:
        call()
