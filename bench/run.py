"""Benchmark of the celestial verifier: the `verify`, `query` and `sample` workloads.

    python3 bench/run.py --workload verify|query|sample|all --seed N --seconds T --trace 0|1

Run it from the root of a source checkout; it needs nothing but the Python
standard library and `src/celestial`.  Every workload is a closed loop
driven by one caller, one operation at a time, with no threads:

- verify: `python -m celestial.cli verify --json --seed S` in a fresh
  interpreter per run (the default seed first, then seeds drawn from N);
- query: one process calls `forms.classify_family` and
  `liealg.invariant_forms` on a seeded stream of distinct inputs;
- sample: one process calls `cli.main(["sample", ...])` on seeded rounds of
  large and small resolutions, CSV and PLY, with and without --proj.

Every result is checked (see gate.py); a wrong answer exits with code 3 and
names the operation, without printing a result.  The report lines come
first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones, their timings rescaled to a reference machine speed by
probes run next to the program (calibration.py); with --trace 1 they are
the per-layer ones of a separate traced run, which alternates untraced and
traced runs of a fixed unit of the workload and reports the tracing
overhead between them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibration
import gate
import streams
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "query", "sample")

# name -> unit; the same list, with bounds, is in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "ref_work_per_s": "1/s",
}
PER_LAYER = {
    **{f"{label}.{kind}": unit for label in tracing.LABELS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **dict(tracing.EXTRA_METRICS),
    **{f"verify.{check_id}.s": "s" for check_id in gate.load_reference()["verify_check_ids"]},
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 11
SETUP_CODE = "import celestial.cli\nfrom celestial.segre import i2_segre\ni2_segre()\n"
CHILD_TIMEOUT_S = 150  # a fresh process; a timed worker gets its --seconds on top


class Abort(Exception):
    """The benchmark cannot give a result; the message says why."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Child:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, env, tmp, timeout_s):
        self.argv = argv
        with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            killer = threading.Timer(timeout_s, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
            proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
            out.seek(0)
            err.seek(0)
            self.stdout = out.read()
            self.stderr = err.read().decode(errors="replace")

    def summary(self) -> dict:
        """The JSON summary a worker prints last; aborts on a wrong answer."""
        if self.returncode == gate.WRONG_ANSWER_EXIT:
            raise Abort(self.stderr.strip(), gate.WRONG_ANSWER_EXIT)
        if self.returncode != 0:
            raise Abort(f"benchmark worker crashed:\n{self.stderr}", 1)
        return json.loads(self.stdout.decode().splitlines()[-1])


class Bench:
    def __init__(self, root: str, seed: int, seconds: float, tmp: str):
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.report: list[str] = []
        self.probes: list[float] = []

    def child(self, argv, timeout_s=CHILD_TIMEOUT_S) -> Child:
        return Child([sys.executable] + argv, self.env, self.tmp, timeout_s)

    def process_probe(self) -> float:
        c = self.child(["-c", calibration.PROCESS_PROBE])
        if c.returncode != 0:
            raise Abort(f"speed probe failed:\n{c.stderr}", 1)
        self.probes.append(c.wall_s)
        return c.wall_s

    def probed_children(self, argvs):
        """Run children one at a time, with a process probe before and after each.

        Yields (child, its wall time rescaled by the mean of the two probes).
        """
        before = self.process_probe()
        for argv in argvs:
            c = self.child(argv)
            after = self.process_probe()
            yield c, calibration.rescale(c.wall_s, (before + after) / 2,
                                         calibration.PROCESS_REFERENCE_S)
            before = after

    def worker(self, mode: str, *extra) -> Child:
        return self.child([WORKER, mode, "--seed", str(self.seed), "--tmp", self.tmp, *extra],
                          self.seconds + CHILD_TIMEOUT_S)

    def line(self, text: str) -> None:
        self.report.append(text)

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter importing the CLI and building I2."""
        self.child(["-c", SETUP_CODE])  # compiles the bytecode once
        walls, scaled = [], []
        for c, scaled_wall in self.probed_children([["-c", SETUP_CODE]] * SETUP_PROBES):
            if c.returncode != 0:
                raise Abort(f"set-up failed:\n{c.stderr}", 1)
            walls.append(c.wall_s)
            scaled.append(scaled_wall)
        self.line(f"setup_s {statistics.median(scaled):.4f} s at the reference speed, "
                  f"{statistics.median(walls):.4f} s wall (median of {len(walls)} fresh interpreters)")
        return statistics.median(scaled)

    # --- untraced workloads ------------------------------------------------
    # each returns (attempted, failed, peak RSS in MB, work done, busy seconds
    # at the reference speed)

    def verify(self):
        reference = gate.load_reference()
        walls, scaled, rss, failed = [], [], [], 0
        start = time.perf_counter()
        seeds = streams.verify_seeds(self.seed)
        argvs = (["-m", "celestial.cli", "verify", "--json", "--seed", str(s)] for s in seeds)
        for c, scaled_wall in self.probed_children(argvs):
            suite_seed = int(c.argv[-1])
            rss.append(c.peak_rss_mb)
            try:
                json.loads(c.stdout)
            except ValueError:  # a crash, not an answer
                failed += 1
                self.line(f"failed: verify --seed {suite_seed}: {c.stderr.strip().splitlines()[-1:]}")
            else:
                try:
                    gate.check_verify_output(c.stdout, suite_seed, reference)
                except gate.WrongAnswer as exc:
                    raise Abort(str(exc), gate.WRONG_ANSWER_EXIT) from None
                walls.append(c.wall_s)
                scaled.append(scaled_wall)
            if time.perf_counter() - start >= self.seconds:
                break
        if not walls:
            raise Abort("no verify run succeeded", 1)
        verify_s = statistics.median(scaled)
        self.line(f"verify_s {verify_s:.4f} s at the reference speed, {statistics.median(walls):.4f} "
                  f"s wall (median of {len(walls)} fresh-process suite runs)")
        return len(rss), failed, max(rss), 1, verify_s

    def _in_process(self, mode: str) -> tuple[dict, float]:
        c = self.worker(mode, "--seconds", str(self.seconds))
        s = c.summary()
        for failure in s["failures"]:
            self.line(f"failed: {failure}")
        return s, c.peak_rss_mb

    def query(self):
        s, rss = self._in_process("query")
        self.line(f"query_ops_per_s {s['attempted'] / s['busy_s']:.3f} 1/s wall "
                  f"({s['attempted']} operations)")
        for kind in ("family", "invariant"):
            lat = s["latencies_ms"].get(kind, [])
            if len(lat) >= 2:
                p50 = statistics.median(lat)
                p90 = statistics.quantiles(lat, n=10)[-1]
                self.line(f"query_{kind}_p50_ms {p50:.3f} ms, query_{kind}_p90_ms {p90:.3f} ms "
                          f"wall ({len(lat)} operations)")
        return s["attempted"], s["failed"], rss, s["attempted"], s["scaled_busy_s"]

    def sample(self):
        s, rss = self._in_process("sample")
        self.line(f"sample_points_per_s {s['items'] / s['busy_s']:.1f} 1/s wall "
                  f"({s['items']} verified points in {s['attempted']} runs)")
        return s["attempted"], s["failed"], rss, s["items"], s["scaled_busy_s"]

    def end_to_end(self, workload: str) -> tuple[int, int, dict]:
        setup = self.setup_s()
        attempted, failed, rss, work, scaled_busy_s = getattr(self, workload)()
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss,
            "success_rate": (attempted - failed) / attempted,
            "ref_work_per_s": work / scaled_busy_s,
        }
        self.line(f"ref_work_per_s {metrics['ref_work_per_s']:.6g} 1/s at the reference speed")
        self.line(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} failed)")
        self.line(f"peak_rss_mb {rss:.1f} MB")
        self.line(f"process probe median {statistics.median(self.probes):.4f} s over "
                  f"{len(self.probes)} (reference {calibration.PROCESS_REFERENCE_S:g} s)")
        return attempted, failed, metrics

    # --- traced run: per-layer metrics ------------------------------------

    def traced(self, workload: str, out_dir: str) -> tuple[int, int, dict]:
        metrics = {f"verify.{check_id}.s": 0.0 for check_id in gate.load_reference()["verify_check_ids"]}
        if workload == "verify":
            checks = self.worker("checks").summary()
            for check_id, seconds in checks["check_s"].items():
                metrics[f"verify.{check_id}.s"] = seconds
        plain, traced, layers = [], [], []
        attempted = failed = 0
        spans_path = os.path.join(out_dir, f"spans-{workload}.json")  # the last traced unit
        start = time.perf_counter()
        while True:
            for trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                extra = ("--trace-out", spans_path) if trace else ()
                c = self.worker(workload, "--unit", *extra)
                s = c.summary()
                attempted += s["attempted"]
                failed += s["failed"]
                (traced if trace else plain).append(s)
                if trace:
                    layers.append(tracing.load_metrics(spans_path))
            if time.perf_counter() - start >= self.seconds:
                break
        for name in layers[0]:
            metrics[name] = statistics.median_low(run[name] for run in layers)
        unit_plain = statistics.median(s["scaled_busy_s"] for s in plain)
        unit_traced = statistics.median(s["scaled_busy_s"] for s in traced)
        metrics["trace.overhead_ratio"] = unit_traced / unit_plain - 1.0
        self.line(f"traced unit {unit_traced:.4f} s vs untraced {unit_plain:.4f} s at the reference "
                  f"speed: overhead {metrics['trace.overhead_ratio']:+.1%} ({len(traced)} pairs)")
        if workload == "verify":
            checks_total = sum(metrics[f"verify.{c}.s"] for c in checks["check_s"])
            self.line(f"checks sum {checks_total:.4f} s vs in-process suite {unit_plain:.4f} s, "
                      f"both at the reference speed")
        ranked = sorted((k for k in metrics if k.endswith(".self_s")),
                        key=lambda k: -metrics[k])
        total = sum(metrics[k] for k in ranked) or 1.0
        for k in ranked[:8]:
            self.line(f"  {k[:-len('.self_s')]:<40} self {metrics[k]:8.4f} s "
                      f"{metrics[k] / total:6.1%}  calls {metrics[k[:-len('self_s')] + 'calls']}")
        for k in ("liealg.invariant_forms.hit_ratio", "exact.Matrix.rref.max_entry_bits"):
            self.line(f"  {k} {metrics[k]}")
        return attempted, failed, metrics


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload and print its report and JSON result line."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir)
    bench = Bench(root, seed, seconds, tmp)
    try:
        if trace:
            attempted, failed, metrics = bench.traced(workload, out_dir)
            units = PER_LAYER
        else:
            attempted, failed, metrics = bench.end_to_end(workload)
            units = END_TO_END
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {trace}")
    for text in bench.report:
        print(text)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=streams.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "celestial", "cli.py")):
        print("error: run from the root of a celestial checkout (src/celestial not found)",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(root, workload, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
