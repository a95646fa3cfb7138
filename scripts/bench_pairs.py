#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload query --seed 83 --seconds 30 --pairs 10

First it refreshes the bytecode of both checkouts
(`env -u PYTHONDONTWRITEBYTECODE python3 -m compileall -q src`), so that
neither recompiles its modules in every fresh interpreter.  Then it runs
`bench/run.py --workload W --seed S --seconds T` in each checkout, pair by
pair, the parent first in even pairs and the change first in odd ones.
Before each pair it times one CPU-bound process and then two side by side;
their ratio (about 1 when a second CPU is free, about 2 when it is not) is
printed with the pair.  At the end it prints, for each end-to-end metric of
BENCHMARK.json, the median and quartiles of each side and the number of
pairs in which the change is ahead.  It needs only the standard library,
and it writes nothing but the bytecode and the benchmark's own output
directories.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPIN = "sum(i * i for i in range(3_000_000))"


def refresh_bytecode(checkout: Path) -> None:
    """Compile the checkout's src tree, with PYTHONDONTWRITEBYTECODE unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, env=env, check=True)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in the checkout: its metrics, read off the JSON last line of stdout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def two_process_ratio() -> float:
    """The wall time of two CPU-bound processes side by side over that of one alone."""

    def spin(n: int) -> float:
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", _SPIN]) for _ in range(n)]
        for proc in procs:
            proc.wait()
        return time.perf_counter() - start

    return spin(2) / spin(1)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better: str) -> dict:
    """The summary of one metric over (parent, change) pairs of values.

    ``better`` is "higher" or "lower".  The change is ahead in a pair when
    it is strictly better there.  ``shift`` is the change's median less the
    parent's, signed so that a positive shift is better, and ``spread`` the
    distance between the parent's quartiles, so a gain that is more than
    noise has shift > spread.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if not pairs:
        raise ValueError("no pairs to summarize")
    sign = 1 if better == "higher" else -1
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    shift = sign * (change[1] - parent[1])
    return {
        "parent": parent,
        "change": change,
        "ahead": sum(sign * (c - p) > 0 for p, c in pairs),
        "pairs": len(pairs),
        "shift": shift,
        "spread": parent[2] - parent[0],
        "relative": shift / abs(parent[1]) if parent[1] else 0.0,
    }


def _end_to_end() -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout's root")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout's root")
    parser.add_argument("--workload", choices=("verify", "query", "sample"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{name} {checkout} has no bench/run.py")

    for checkout in sides.values():
        refresh_bytecode(checkout)
    metrics = _end_to_end()
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        ratio = two_process_ratio()
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], args.workload, args.seed, args.seconds))
        values = ", ".join(
            f"{name} {runs['parent'][-1][name]:.6g}/{runs['change'][-1][name]:.6g}" for name, _ in metrics
        )
        print(f"pair {i + 1} ({order[0]} first, two-process ratio {ratio:.2f}): {values}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs (parent/change)")
    for name, better in metrics:
        s = summarize([(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])], better)
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(
            f"{name:<15} median {p2:.6g} -> {c2:.6g} ({s['relative']:+.1%} better), "
            f"quartiles {p1:.6g}-{p3:.6g} -> {c1:.6g}-{c3:.6g}, "
            f"change ahead in {s['ahead']} of {s['pairs']}, shift {s['shift']:.4g} vs parent spread {s['spread']:.4g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
