"""Tests of the benchmark itself (stdlib unittest).

    python3 bench/tests/test_bench.py        # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import calibration  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_span_tree(self):
        # cli.main [0, 10] holds invariant_forms [1, 4] (which holds solve_invariant
        # [2, 3]), a hot Matrix.mul [5, 6] and kernel [6.5, 9]
        t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 9.0, 10.0]))
        root = t.enter("cli.main", hot=False)
        inv = t.enter("liealg.invariant_forms", hot=False)
        t.exit(t.enter("liealg.solve_invariant", hot=False))
        t.exit(inv)
        t.exit(t.enter("exact.Matrix.mul", hot=True))
        t.exit(t.enter("exact.kernel", hot=False))
        t.exit(root)
        self.assertEqual(
            [(s.name, s.parent, s.self_s) for s in t.spans],
            [("cli.main", None, 10.0 - 3.0 - 1.0 - 2.5), ("liealg.invariant_forms", 0, 2.0),
             ("liealg.solve_invariant", 1, 1.0), ("exact.kernel", 0, 2.5)],
        )
        m = tracing.layer_metrics(t.spans, t.hot, t.counters)
        self.assertEqual(m["cli.main.self_s"], 3.5)
        self.assertEqual(m["exact.Matrix.mul.self_s"], 1.0)
        self.assertEqual(m["liealg.invariant_forms.calls"], 1)

    def test_tracer_hot_and_span_frames(self):
        t = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        outer = t.enter("liealg.invariant_forms", hot=False)
        hot = t.enter("exact.Matrix.mul", hot=True)
        nested = t.enter("liealg.solve_invariant", hot=False)  # inside a hot call: aggregated
        t.exit(nested)
        t.exit(hot)
        t.exit(outer)
        self.assertEqual(t.hot["exact.Matrix.mul"], [1, 3.0, 2.0])
        self.assertEqual(t.hot["liealg.solve_invariant"], [1, 1.0, 1.0])
        self.assertEqual(t.spans, [Span(0, "liealg.invariant_forms", 0.0, 5.0, None, 0, 2.0)])
        m = tracing.layer_metrics(t.spans, t.hot, t.counters)
        self.assertEqual(m["liealg.invariant_forms.self_s"], 2.0)
        self.assertEqual(m["exact.Matrix.mul.calls"], 1)

    def test_hit_ratio(self):
        spans = [
            Span(0, "liealg.invariant_forms", 0.0, 2.0, None, 0, 1.0),
            Span(1, "liealg.solve_invariant", 0.5, 1.5, 0, 0, 1.0),
            Span(2, "liealg.invariant_forms", 3.0, 3.1, None, 1, 0.1),
            Span(3, "liealg.invariant_forms", 4.0, 4.1, None, 2, 0.1),
        ]
        m = tracing.layer_metrics(spans, {}, tracing.Tracer().counters)
        self.assertAlmostEqual(m["liealg.invariant_forms.hit_ratio"], 2 / 3)
        self.assertEqual(m["liealg.invariant_forms.calls"], 3)


class InstallTest(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        sites = tracing.binding_sites()
        originals = {label: [vars(o)[a] for o, a in s] for label, s in sites.items()}
        # names imported with `from .exact import ...` are bound in several modules
        self.assertGreater(len(sites["exact.signature"]), 2)
        self.assertGreater(len(sites["liealg.solve_invariant"]), 1)
        from celestial import forms

        member = forms.family_form(forms.FamilyCoeffs(1, 1, 1, 1), "x").matrix
        t = tracing.Tracer()
        inst = tracing.install(t)
        try:
            for label, bound in sites.items():
                for (owner, attr), original in zip(bound, originals[label]):
                    self.assertIs(vars(owner)[attr].__wrapped__, original, (label, owner, attr))
            wrapped = {id(o) for objs in originals.values() for o in objs}
            for mod in tracing._program_modules():
                for name, value in vars(mod).items():
                    self.assertNotIn(id(value), wrapped, f"{mod.__name__}.{name} left unwrapped")
            forms.signature(member)  # through the binding `from .exact import signature` made
            self.assertEqual([(s.name, s.parent) for s in t.spans],
                             [("exact.signature", None), ("exact.congruence_diagonalize", 0)])
        finally:
            inst.uninstall()
        for label, bound in sites.items():
            for (owner, attr), original in zip(bound, originals[label]):
                self.assertIs(vars(owner)[attr], original, (label, owner, attr))


class InputsTest(unittest.TestCase):
    @staticmethod
    def first(gen, n):
        return [next(gen) for _ in range(n)]

    def test_deterministic_per_seed(self):
        for make in (streams.query_ops, streams.sample_rounds, streams.verify_seeds):
            self.assertEqual(self.first(make(7), 12), self.first(make(7), 12), make.__name__)
            self.assertNotEqual(self.first(make(7), 12), self.first(make(8), 12), make.__name__)

    def test_query_mix_covers_every_class(self):
        ops = self.first(streams.query_ops(1), 400)
        names = {gate.expected_family_name(op[2]) for op in ops if op[0] == "family"}
        self.assertEqual(names, {None, "double Segre surface", "projected dS", "dP6", "ring cyclide"})
        self.assertEqual(sum(op[0] == "invariant" for op in ops), 100)

    def test_sample_round_keeps_the_smallest_resolution(self):
        jobs = next(streams.sample_rounds(3))
        self.assertEqual(len(jobs), 25)
        self.assertEqual({j.surface for j in jobs if j.resolution == 2}, set(streams.SURFACE_COORDS))


class GateTest(unittest.TestCase):
    reference = gate.load_reference()

    def test_wrong_family_row(self):
        coeffs = (Fraction(1), Fraction(1), Fraction(0), Fraction(1))
        good = self.reference["family_records"]["dP6"]
        self.assertIsNotNone(gate.check_family(coeffs, good, None, self.reference))
        bad = self.reference["family_records"]["projected dS"]
        with self.assertRaises(gate.WrongAnswer):
            gate.check_family(coeffs, bad, None, self.reference)
        with self.assertRaises(gate.WrongAnswer):  # an invalid vector must be rejected
            gate.check_family((Fraction(1), Fraction(-1), Fraction(1), Fraction(1)),
                              good, None, self.reference)
        self.assertIsNone(gate.check_family(coeffs, None, RuntimeError(), self.reference))

    def test_corrupted_invariant_form(self):
        from celestial import liealg, segre

        ambient = segre.i2_segre()
        ambient_span = gate.AmbientSpan([gate.pairs(q.matrix) for q in ambient.basis])
        algebra = liealg.NAMED_ALGEBRAS["so2xso2"]
        span = liealg.invariant_forms(algebra, ambient)
        tangents = [gate.pairs(liealg.d_rep(x)) for x in algebra]
        basis = [gate.pairs(q.matrix) for q in span.basis]
        self.assertGreater(len(basis), 1)
        gate.check_invariant("so2xso2", basis, tangents, ambient_span)
        corrupt = [row[:] for row in basis[0]]
        corrupt[0][0] = (corrupt[0][0][0] + 1, corrupt[0][0][1])
        with self.assertRaises(gate.WrongAnswer):
            gate.check_invariant("so2xso2", [corrupt] + basis[1:], tangents, ambient_span)
        # correct forms, but too few of them
        for short in (basis[1:], []):
            with self.assertRaisesRegex(gate.WrongAnswer, "invariant forms span"):
                gate.check_invariant("so2xso2", short, tangents, ambient_span)

    def test_gaussian_rank(self):
        rows = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(0, 0), (2, 0)]]  # row 2 is i * row 1
        self.assertEqual(gate.gaussian_rank([row[:] for row in rows[:2]]), 1)
        self.assertEqual(gate.gaussian_rank(rows), 2)
        self.assertEqual(gate.gaussian_rank([]), 0)

    def test_corrupted_verify_output(self):
        with open(gate.VERIFY_REFERENCE, "rb") as fh:
            good = fh.read()
        self.assertEqual(gate.check_verify_output(good, 0, self.reference), 11)
        with self.assertRaises(gate.WrongAnswer):
            gate.check_verify_output(good.replace(b'"pass"', b'"fail"', 1), 5, self.reference)
        with self.assertRaises(gate.WrongAnswer):  # same verdicts, different bytes
            gate.check_verify_output(good.replace(b"a:20", b"a:21"), 0, self.reference)

    def test_corrupted_sample_file(self):
        from celestial import sampling

        job = streams.SampleJob("ring", 4, "csv", None)
        cloud = sampling.sample("ring", 4)
        body = "".join(f"{x:.12g},{y:.12g},{z:.12g}\n" for x, y, z in cloud.points)
        message = f"wrote {len(cloud.points)} points to f (0 degenerate samples skipped, max quadric residual 1e-17)"
        points, _ = sampling.surface_points("ring", 4)
        fn = gate.residual_function(sampling.surface_quadrics("ring"))
        proj = gate.default_projection(5)
        lines = ("x,y,z\n" + body).splitlines(keepends=True)
        self.assertEqual(gate.check_sample(job, message, iter(lines), points, fn, proj), 16)
        for bad in (lines[:1] + ["9,9,9\n"] + lines[2:],  # a moved point
                    lines[:-1],  # the last point dropped
                    lines + ["1,2,3\n"]):  # an extra row
            with self.assertRaises(gate.WrongAnswer):
                gate.check_sample(job, message, iter(bad), points, fn, proj)


class EndToEndTest(unittest.TestCase):
    def test_wrong_answer_aborts_the_benchmark(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            forms_py = os.path.join(tmp, "src", "celestial", "forms.py")
            with open(forms_py) as fh:
                text = fh.read()
            # classify dP6 members as projected dS
            broken = text.replace('rec = _make_record(3, 6, 5, "", 2, True, "dP6")',
                                  'rec = _make_record(2, 8, 5, "", 2, False, "projected dS")')
            self.assertNotEqual(text, broken)
            with open(forms_py, "w") as fh:
                fh.write(broken)
            p = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "query",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=300,
            )
        self.assertEqual(p.returncode, gate.WRONG_ANSWER_EXIT, p.stderr)
        self.assertIn("wrong answer in classify_family", p.stderr)
        self.assertNotIn('"correct"', p.stdout)

    def test_refuses_without_program(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            p = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


class CalibrationTest(unittest.TestCase):
    def test_rescale_to_reference_speed(self):
        slow = 2 * calibration.REFERENCE_S
        self.assertEqual(calibration.rescale(3.0, slow), 1.5)  # twice as slow: half the time
        self.assertGreater(calibration.probe(), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
