"""Acceptance criteria, one test per criterion.

Each test recomputes its claim through the library at the stated tolerance
(exact equality unless noted) and prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines, or use the
``celestial verify`` command for the same checks behind a CLI.
"""

import random
from fractions import Fraction

from celestial.exact import Matrix, Signature, gauss, signature
from celestial import forms, geometry, lattice, liealg, sampling, verify
from celestial.segre import (
    SEGRE_PARAM,
    FormSpan,
    apply_sigma,
    form_from_pairs,
    i2_dimension,
    i2_segre,
    mu_transform,
    rep_S,
    torus_sigma,
)
from celestial.verify import class_param
from oracles import evaluation_nullity

SEED = 0


def _report(num, label):
    print(f"criterion {num:>2} PASS  {label}")


def test_criterion_01_ideal_dimensions():
    dims = tuple(i2_dimension(class_param(tag)) for tag in "abcdefgh")
    assert dims == (20, 9, 9, 6, 2, 2, 2, 1)
    assert dims == tuple(evaluation_nullity(class_param(tag)) for tag in "abcdefgh")
    _report(1, f"ideal dimensions {dims} counted from P + P and matched to the evaluation nullity")


def test_criterion_02_invariant_form_bases():
    ambient = i2_segre()
    rot = liealg.invariant_forms(liealg.NAMED_ALGEBRAS["so2xso2"], ambient)
    assert rot.equals(verify.expected_rotation_invariants_y())
    assert FormSpan(tuple(mu_transform(2, q) for q in rot.basis)).equals(
        verify.expected_rotation_invariants_x2()
    )
    sx = liealg.invariant_forms(liealg.NAMED_ALGEBRAS["so2xsx1"], ambient)
    assert sx.equals(verify.expected_rotation_invariants_y())
    assert FormSpan(tuple(mu_transform(1, q) for q in sx.basis)).equals(
        verify.expected_spindle_invariants_x1()
    )
    se = liealg.invariant_forms(liealg.NAMED_ALGEBRAS["so2xse1"], ambient)
    assert se.equals(verify.expected_horn_invariants_y())
    assert FormSpan(tuple(mu_transform(1, q) for q in se.basis)).equals(
        verify.expected_horn_invariants_x1()
    )
    full = liealg.invariant_forms(liealg.FULL_BASIS, ambient)
    assert len(full) == 1
    assert full.equals(FormSpan((verify.expected_full_invariant_y(),)))

    rot3 = geometry.veronese_invariant_forms(geometry.so3_basis())
    assert len(rot3) == 1
    assert rot3.equals(
        FormSpan((verify.expected_rotation_invariant_veronese(),))
    )
    assert len(geometry.veronese_invariant_forms(geometry.SL3_BASIS.values())) == 0
    _report(2, "all invariant-form bases reproduced as exact span equalities")


def test_criterion_03_family_classification():
    cases = {
        (1, 1, 1, 1): ((2, 8, 7), 3, 7),
        (0, 1, 1, 1): ((2, 8, 5), 2, 5),
        (1, 1, 0, 1): ((3, 6, 5), 2, 5),
        (0, 1, 0, 1): ((4, 4, 3), 1, 3),
    }
    for coeffs, (ctype, moduli, ambient_n) in cases.items():
        c = forms.FamilyCoeffs(*coeffs)
        rec = forms.classify_family(c)
        assert (rec.circles, rec.degree, rec.ambient) == ctype
        assert rec.moduli_dim == moduli
        rank = signature(forms.family_form(c, "x").matrix).rank
        assert rank - 2 == ambient_n == rec.ambient
    _report(3, "family rows reproduced with recomputed ambient dimensions")


def test_criterion_04_hyperquadric_signatures():
    q0, q3 = forms.corollary_forms()
    sigs = (signature(q0.matrix), signature(q3.matrix))
    assert sigs == (Signature(4, 5, 0), Signature(3, 6, 0))
    _report(4, f"rigid hyperquadric signatures {sigs[0]} and {sigs[1]}")


def test_criterion_05_lattice_enumeration():
    raw, unmatched = verify.match_lattice_rows(lattice.classify_grid())
    assert unmatched == []
    assert len(raw) == 10
    merged = [row for row in raw if row.merges_with is None]
    assert len(merged) == 8
    for row in raw:
        assert row.computed_counts() == row.counts
        assert set(row.lattice_type.directions) == set(row.directions)
    hexagon = lattice.convex_hull(
        [(-1, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0)]
    )
    assert lattice.width(hexagon, (1, -1)) == 2
    assert lattice.width(hexagon, (1, 1)) == 4
    _report(5, "10 raw classes collapse to the 8 named ones; widths 2 and 4")


def test_criterion_06_cyclide_pipeline():
    x_s, x_h = geometry.cyclide_pipeline()
    assert x_s.equals(verify.expected_spindle_pencil())
    assert x_h.equals(verify.expected_horn_pencil())
    report = geometry.stereographic_check()
    assert report.ok
    assert report.cone_constant == Fraction(1)
    assert report.cylinder_radius_sq == Fraction(1)
    _report(
        6,
        f"printed pencils reproduced; cone and cylinder fit exactly "
        f"({report.skipped} degenerate samples skipped)",
    )


def test_criterion_07_dynkin_strings():
    rendered = {
        tag: geometry.dynkin(geometry.b_classes(cfg))
        for tag, cfg in geometry.BLOWUP_CONFIGS.items()
    }
    assert rendered == verify.EXPECTED_SINGULAR_STRINGS
    _report(7, "singular loci of configurations a-f match, underlines included")


def test_criterion_08_veronese_signatures():
    witnesses = geometry.veronese_signature_witnesses()
    required = {
        Signature(1, 2, 3),
        Signature(1, 3, 2),
        Signature(1, 5, 0),
        Signature(2, 2, 2),
        Signature(3, 3, 0),
    }
    assert required <= witnesses
    assert signature(geometry.so3_invariant_form().matrix) == Signature(1, 5, 0)
    _report(8, "all five signature witnesses found; invariant form has (1,5)")


def test_criterion_09_property_suites():
    rng = random.Random(f"acceptance:{SEED}")

    def rand_sl2():
        def f():
            return Fraction(rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 3))

        return (
            Matrix([[1, f()], [0, 1]])
            * Matrix([[1, 0], [f(), 1]])
            * Matrix([[1, f()], [0, 1]])
        )

    for _ in range(20):
        p1, p2, q1, q2 = (rand_sl2() for _ in range(4))
        assert rep_S(p1 * q1, p2 * q2) == rep_S(p1, p2) * rep_S(q1, q2)

    def rand_lie():
        out = liealg.E
        for base in liealg.FULL_BASIS:
            if rng.random() < 0.7:
                out = out + gauss(Fraction(rng.randint(-3, 3))) * base
        return out

    for _ in range(20):
        x, y = rand_lie(), rand_lie()
        dx, dy = liealg.d_rep(x), liealg.d_rep(y)
        assert liealg.d_rep(liealg.bracket(x, y)) == dx * dy - dy * dx

    d = liealg.d_rep(liealg.T1)
    d2 = d * d
    assert d2 * d == Matrix.zero(9, 9)
    span = liealg.invariant_forms([liealg.T1], i2_segre())
    for alpha in (Fraction(1), Fraction(2), Fraction(-1, 2)):
        e = Matrix.identity(9) + d.scale(alpha) + d2.scale(alpha * alpha / 2)
        for q in span.basis:
            assert e.transpose() * q.matrix * e == q.matrix

    for _ in range(20):
        n = rng.choice((3, 4))
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = Fraction(rng.randint(-3, 3))
        a = Matrix(sym)
        p = Matrix.identity(n)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                shear = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
                shear[i][j] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                p = p * Matrix(shear)
        assert signature(p.transpose() * a * p) == signature(a)

    for poly in lattice.grid_polygons():
        assert lattice.degree(poly) == poly.twice_area()

    pt = SEGRE_PARAM.eval(gauss("2+i"), gauss("3-2i"))
    for i in range(4):
        assert apply_sigma(i, apply_sigma(i, pt)) == pt
        for q in i2_segre().basis:
            assert apply_sigma(i, apply_sigma(i, q)) == q
        for x in liealg.FULL_BASIS:
            assert liealg.lie_sigma(i, liealg.lie_sigma(i, x)) == x
        s, u = gauss("5-i"), gauss("2+3i")
        ss, uu = torus_sigma(i, s, u)
        assert torus_sigma(i, ss, uu) == (s, u)
    _report(9, "representation, bracket, exponential, signature, area and "
               "involution properties all hold exactly")


def test_criterion_10_rigidity_sampling():
    assert forms.rigidity_sample_check(forms.FamilyCoeffs(1, 1, 1, 1), trials=100, seed=SEED)
    assert forms.rigidity_sample_check(forms.FamilyCoeffs(3, 1, 1, 1), trials=10, seed=SEED + 2)
    _report(10, "100 seeded trials: non-torus pairs leave the family span "
                "(necessary-condition surrogate, not a proof)")


def test_criterion_11_sample_residuals():
    worst = {}
    for surface, resolution in (
        ("dp6", 100), ("ring", 16), ("spindle", 50), ("horn", 50), ("veronese", 30)
    ):
        cloud = sampling.sample(surface, resolution)
        worst[surface] = cloud.max_residual
        assert cloud.max_residual < 1e-9, surface
    assert len(sampling.sample("dp6", 100).points) == 100 * 100
    _report(11, "every emitted point satisfies its quadrics below 1e-9: "
                + " ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items())))


def test_full_verification_suite_is_green():
    results = verify.run_checks(seed=SEED)
    assert len(results) == 11
    for result in results:
        assert result.ok, f"{result.check_id}: {result.detail}"
    print("verification suite: 11/11 checks pass")
