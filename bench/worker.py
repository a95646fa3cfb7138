"""One measured process of the celestial benchmark.

    python3 bench/worker.py query  --seed N (--seconds T | --unit) [--trace-out F] --tmp DIR
    python3 bench/worker.py sample --seed N (--seconds T | --unit) [--trace-out F] --tmp DIR
    python3 bench/worker.py verify --seed N --unit [--trace-out F] --tmp DIR
    python3 bench/worker.py checks --seed N --tmp DIR

`query` and `sample` first run their default-seed gate (results digested
and compared with the seed-commit reference), then a closed loop: one
operation at a time, for T seconds, or for the fixed unit of a traced run
(the first 40 query operations, or the first sample round).  `verify --unit`
runs the suite in this process; `checks` times each check on its own, in
suite order.  With --trace-out the tracer is installed after the gate and
its spans are written to F at the end.  The last line of stdout is a JSON
summary; a wrong answer exits with code 3 and names the operation on stderr.
Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

import calibration
import gate
import streams
import tracer as tracing

QUERY_UNIT_OPS = 40
PROBE_EVERY_S = 0.5  # re-measure the machine speed at least this often


class Session:
    """Timing, counting and the optional tracer of one worker run."""

    def __init__(self):
        self.tracer: tracing.Tracer | None = None
        self.installation = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: dict[str, list[float]] = {}
        self.busy_s = 0.0
        self.scaled_busy_s = 0.0  # busy time at the reference speed (calibration.py)
        self.last_scaled_s = 0.0
        self._probe_s = 0.0
        self._probed_at = float("-inf")
        self.items = 0

    def start_tracing(self) -> None:
        self.tracer = tracing.Tracer()
        self.installation = tracing.install(self.tracer)

    @contextlib.contextmanager
    def untraced(self):
        """Checks call into the program too; keep them out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    def timed(self, kind: str, op_id: int, fn):
        """Run one operation; returns (result, exception)."""
        if self.tracer is not None:
            self.tracer.op_id = op_id
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self._probe_s = calibration.probe()
            self._probed_at = time.perf_counter()
        self.attempted += 1
        raised = result = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the program's failure is counted, not fatal
            raised = exc
        dt = time.perf_counter() - t0
        self.last_scaled_s = calibration.rescale(dt, self._probe_s)
        self.busy_s += dt
        self.scaled_busy_s += self.last_scaled_s
        self.latencies.setdefault(kind, []).append(dt * 1e3)
        return result, raised

    def fail(self, label: str, exc: BaseException | None) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}" if exc else label)

    def finish(self, trace_out: str | None, **extra) -> dict:
        if self.installation is not None:
            self.installation.uninstall()
            self.tracer.dump(trace_out)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "latencies_ms": self.latencies,
            "busy_s": self.busy_s,
            "scaled_busy_s": self.scaled_busy_s,
            "items": self.items,
            **extra,
        }


# --- query -----------------------------------------------------------------

class QueryRunner:
    """Runs and checks one query operation at a time."""

    def __init__(self):
        from celestial import segre

        self.reference = gate.load_reference()
        self.ambient = segre.i2_segre()
        self.ambient_span = gate.AmbientSpan([gate.pairs(q.matrix) for q in self.ambient.basis])

    @staticmethod
    def label(elements) -> str:
        return "; ".join(
            "/".join(",".join(f"{re}{'+' if im >= 0 else ''}{im}i" for re, im in row)
                     for row in half)
            for el in elements for half in el
        )

    def run(self, session: Session, k: int, op) -> str | None:
        """Canonical text of the checked result, or None if the program raised."""
        from celestial import forms, liealg
        from celestial.exact import GaussianRational, Matrix

        if op[0] == "family":
            _, _, coeffs = op
            member = forms.FamilyCoeffs(*coeffs)
            record, raised = session.timed("family", k, lambda: forms.classify_family(member))
            session.items += 1
            with session.untraced():
                text = gate.check_family(
                    coeffs, record.to_json() if record else None, raised, self.reference
                )
            if text is None:
                session.fail(f"classify_family{tuple(map(str, coeffs))}", raised)
            return text

        def mat(rows):
            return Matrix([[GaussianRational(re, im) for re, im in row] for row in rows])

        _, elements = op
        algebra = tuple(liealg.LieElement(mat(left), mat(right)) for left, right in elements)
        span, raised = session.timed(
            "invariant", k, lambda: liealg.invariant_forms(algebra, self.ambient)
        )
        session.items += 1
        if raised is not None:
            session.fail(f"invariant_forms({self.label(elements)})", raised)
            return None
        with session.untraced():
            return gate.check_invariant(
                self.label(elements),
                [gate.pairs(q.matrix) for q in span.basis],
                [gate.pairs(liealg.d_rep(x)) for x in algebra],
                self.ambient_span,
            )

    def gate_digest(self) -> gate.Digest:
        digest, session = gate.Digest(), Session()
        for k, op in enumerate(streams.gate_query_ops()):
            digest.add(self.run(session, k, op) or "failed")
        return digest


def _query(args, session: Session) -> dict:
    runner = QueryRunner()
    gate.check_digest("query gate (default seed)", runner.gate_digest(), runner.reference, "query")
    if args.trace_out:
        session.start_tracing()
    start = time.perf_counter()
    for k, op in enumerate(streams.query_ops(args.seed)):
        if args.unit and k == QUERY_UNIT_OPS:
            break
        runner.run(session, k, op)
        if not args.unit and time.perf_counter() - start >= args.seconds:
            break
    return session.finish(args.trace_out)


# --- sample ----------------------------------------------------------------

class SampleRunner:
    """Runs `celestial sample` in process and checks the written file."""

    def __init__(self, tmp: str):
        self.out_path = {fmt: os.path.join(tmp, f"cloud.{fmt}") for fmt in ("csv", "ply")}
        self.proj_path = os.path.join(tmp, "proj.txt")
        self.residual_fns = {}

    def run(self, session: Session, k: int, job, digest: gate.Digest | None = None) -> None:
        """Run and check one job; a digest gets the job, then the written file or a
        failure marker.  The file is checked line by line, so the check never holds
        more of it than the program did."""
        from celestial import cli, sampling

        path = self.out_path[job.fmt]
        argv = ["sample", "--surface", job.surface, "--resolution", str(job.resolution),
                "--out", path, "--format", job.fmt]
        if job.projection:
            with open(self.proj_path, "w") as fh:
                fh.write("".join(" ".join(repr(x) for x in row) + "\n" for row in job.projection))
            argv += ["--proj", self.proj_path]
        message = io.StringIO()

        def call():
            with contextlib.redirect_stdout(message):
                return cli.main(argv)

        rc, raised = session.timed("job", k, call)
        if digest is not None:
            digest.add(job.label())
        if rc != 0:
            session.fail(job.label(), raised or RuntimeError(f"exit code {rc}"))
            if digest is not None:
                digest.add(f"failed {type(raised).__name__ if raised else rc}")
            return
        with session.untraced(), open(path) as fh:
            if job.surface not in self.residual_fns:
                self.residual_fns[job.surface] = gate.residual_function(
                    sampling.surface_quadrics(job.surface)
                )
            points, _ = sampling.surface_points(job.surface, job.resolution)
            session.items += gate.check_sample(
                job, message.getvalue(), fh, points, self.residual_fns[job.surface],
                gate.default_projection(streams.SURFACE_COORDS[job.surface]),
            )
            if digest is not None:  # the default-seed round only: small files
                fh.seek(0)
                digest.add(fh.read())
        os.remove(path)

    def gate_digest(self) -> gate.Digest:
        digest, session = gate.Digest(), Session()
        for k, job in enumerate(streams.gate_sample_jobs()):
            self.run(session, k, job, digest)
        return digest


def _sample(args, session: Session) -> dict:
    runner = SampleRunner(args.tmp)
    gate.check_digest("sample gate (default seed)", runner.gate_digest(),
                      gate.load_reference(), "sample")
    if args.trace_out:
        session.start_tracing()
    rounds = streams.sample_rounds(args.seed)
    start = time.perf_counter()
    k = 0
    while True:  # whole rounds only, so every run has the same job mix
        for job in next(rounds):
            runner.run(session, k, job)
            k += 1
        if args.unit or time.perf_counter() - start >= args.seconds:
            break
    return session.finish(args.trace_out)


# --- verify ----------------------------------------------------------------

def _verify(args, session: Session) -> dict:
    from celestial import cli

    reference = gate.load_reference()
    if args.trace_out:
        session.start_tracing()
    out = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out):
            return cli.main(["verify", "--json", "--seed", str(args.seed)])

    _, raised = session.timed("suite", 0, call)
    if raised is not None:
        session.fail(f"verify --seed {args.seed}", raised)
    else:
        with session.untraced():
            session.items += gate.check_verify_output(out.getvalue().encode(), args.seed, reference)
    return session.finish(args.trace_out)


def _checks(args, session: Session) -> dict:
    from celestial import verify

    times = {}
    for check_id, _, _ in verify.CHECKS:
        results, raised = session.timed(
            "check", 0, lambda: verify.run_checks(only=check_id, seed=args.seed)
        )
        if raised is not None:
            session.fail(check_id, raised)
        elif not results[0].ok:
            raise gate.WrongAnswer(f"verify --only {check_id}", results[0].detail)
        times[check_id] = session.last_scaled_s
    return session.finish(None, check_s=times)


MODES = {"query": _query, "sample": _sample, "verify": _verify, "checks": _checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--unit", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    try:
        summary = MODES[args.mode](args, Session())
    except gate.WrongAnswer as exc:
        print(exc, file=sys.stderr)
        return gate.WRONG_ANSWER_EXIT
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
