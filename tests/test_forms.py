"""The hyperquadric family and the classification records."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial.exact import Matrix, Signature, gauss, signature
from celestial import forms, lattice, liealg, verify
from celestial.forms import (
    INFINITY,
    FamilyCoeffs,
    classify_family,
    corollary_forms,
    family_form,
    random_fraction,
    random_sl2,
    rigidity_sample_check,
    singular_support,
)
from celestial.segre import (
    Y_EXPONENTS,
    FormSpan,
    QuadraticForm,
    apply_sigma,
    form_from_pairs,
    i2_segre,
    mu_transform,
    rep_S,
)
from oracles import shear_product_congruence


def test_family_coeffs_reject_zero():
    with pytest.raises(ValueError):
        FamilyCoeffs(0, 0, 0, 0)


def test_family_form_all_ones_is_the_seven_sphere():
    q = family_form(FamilyCoeffs(1, 1, 1, 1), "x")
    expected = [1] + [-1] * 8
    assert [q.matrix[k, k] for k in range(9)] == [gauss(x) for x in expected]
    assert signature(q.matrix) == Signature(1, 8, 0)


def test_family_form_rank_three_member():
    q = family_form(FamilyCoeffs(1, 0, 0, 0), "x")
    expected = form_from_pairs(
        [((0, 0), Fraction(1, 4)), ((1, 1), -1), ((2, 2), -1)], 9
    )
    assert q.matrix == expected.matrix


def test_family_form_diagonal_readout():
    q = family_form(FamilyCoeffs(0, 1, 0, 1), "x")
    expected = [Fraction(1, 2), 0, 0, -1, -1, 0, 0, -1, -1]
    assert [q.matrix[k, k].re for k in range(9)] == expected
    assert signature(q.matrix) == Signature(1, 4, 4)


def test_singular_support_cases():
    assert singular_support(FamilyCoeffs(1, 1, 1, 1)) == (frozenset(), -1)
    vanishing, dim = singular_support(FamilyCoeffs(0, 1, 1, 1))
    assert (vanishing, dim) == ({1}, 1)
    assert singular_support(FamilyCoeffs(0, 1, 0, 1)) == ({1, 5}, 3)


def test_singular_support_vertex_is_the_expected_line():
    from celestial.exact import kernel

    q = family_form(FamilyCoeffs(0, 1, 1, 1), "y")
    vectors = kernel(q.matrix).entries()
    support = {k for v in vectors for k, x in enumerate(v) if x}
    assert support == {1, 2}


def test_singular_support_rejections():
    with pytest.raises(ValueError):
        singular_support(FamilyCoeffs(1, -1, 1, 1))
    with pytest.raises(ValueError):
        singular_support(FamilyCoeffs(1, 0, 0, 0))


@pytest.mark.parametrize(
    "coeffs, ctype, singular, moduli, full_aut",
    [
        ((1, 1, 1, 1), (2, 8, 7), "", 3, False),
        ((0, 1, 1, 1), (2, 8, 5), "", 2, False),
        ((1, 0, 1, 1), (2, 8, 5), "", 2, False),
        ((1, 1, 0, 1), (3, 6, 5), "", 2, True),
        ((1, 1, 1, 0), (3, 6, 5), "", 2, True),
        ((0, 1, 0, 1), (4, 4, 3), "A1+A1+A1+A1", 1, True),
        ((0, 0, 1, 1), (4, 4, 3), "A1+A1+A1+A1", 1, True),
    ],
)
def test_classify_family_rows(coeffs, ctype, singular, moduli, full_aut):
    rec = classify_family(FamilyCoeffs(*coeffs))
    assert (rec.circles, rec.degree, rec.ambient) == ctype
    assert rec.singular_locus == singular
    assert rec.group_name == "PSO(2)xPSO(2)"
    assert rec.moduli_dim == moduli
    assert rec.moebius_equals_full_aut is full_aut


def test_classification_is_scale_invariant():
    c = FamilyCoeffs(2, 3, 0, 5)
    scaled = FamilyCoeffs(*(Fraction(7, 2) * x for x in c.as_tuple()))
    assert classify_family(c) == classify_family(scaled)


def test_classification_is_constant_on_support_patterns():
    values = (0, 1, 2)
    for pattern in itertools.product(values, repeat=4):
        if not any(pattern):
            continue
        if len([x for x in pattern if x == 0]) > 2:
            continue
        base = tuple(1 if x else 0 for x in pattern)
        assert classify_family(FamilyCoeffs(*pattern)) == classify_family(
            FamilyCoeffs(*base)
        )


def test_ambient_dimension_matches_rank():
    for coeffs in ((1, 1, 1, 1), (0, 2, 1, 1), (3, 0, 0, 1)):
        rec = classify_family(FamilyCoeffs(*coeffs))
        rank = signature(family_form(FamilyCoeffs(*coeffs), "x").matrix).rank
        assert rec.ambient == rank - 2


def test_fixed_records():
    records = {r.name: r for r in verify.fixed_records()}
    assert records["spindle cyclide"].group_name == "PSO(2)xPSX(1)"
    assert records["spindle cyclide"].singular_locus == "rA1+rA1+A1+A1"
    assert records["horn cyclide"].singular_locus == "rA3+A1+A1"
    sphere = records["2-sphere"]
    assert (sphere.circles, sphere.degree, sphere.ambient) == (INFINITY, 2, 2)
    assert sphere.group_name == "PSO(3,1)"
    assert sphere.moduli_dim == 0
    assert records["Veronese surface"].moebius_equals_full_aut is False


def test_the_invariant_forms_check_cross_checks_the_model_symmetries(monkeypatch):
    # each model's quadrics must be invariant under its own algebra; a wrong
    # algebra under the model's name fails the check and names the exception
    named = forms.liealg.NAMED_ALGEBRAS
    for model, algebra, stand_in in (
        ("spindle", "so2xsx1", "sl2xsl2"), ("horn", "so2xse1", "so2xsx1")
    ):
        monkeypatch.setitem(named, algebra, named[stand_in])
        (result,) = verify.run_checks(only="invariant-forms")
        assert not result.ok
        assert result.detail.startswith(
            f"RuntimeError: {model} quadrics are not symmetry-invariant @ verify.py:"
        )
        monkeypatch.undo()
    (result,) = verify.run_checks(only="invariant-forms")
    assert (result.ok, result.detail) == (True, "11/11 span identities")


def test_every_record_matches_a_classification_row():
    rows = list(verify.RECORD_TABLE.values())
    for coeffs in ((1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (0, 1, 0, 1)):
        assert classify_family(FamilyCoeffs(*coeffs)) in rows
    for rec in verify.fixed_records():
        assert rec in rows
    assert all(name == rec.name for name, rec in verify.RECORD_TABLE.items())


def test_family_classification_fails_on_a_wrong_dp6_record(monkeypatch):
    # the benchmark self-test's mutation: dP6 supports get the projected-dS record
    make = forms._make_record

    def wrong(*args):
        rec = make(*args)
        return make(2, 8, 5, "", 2, False, "projected dS") if rec.name == "dP6" else rec

    monkeypatch.setattr(forms, "_make_record", wrong)
    (result,) = verify.run_checks(only="family-classification")
    assert not result.ok
    assert result.detail.startswith("(1, 1, 0, 1) gave ")
    assert "'name': 'projected dS'" in result.detail


def _degree_mismatches(records, rows):
    """Surfaces whose record degree, printed lattice degree and polygon degree disagree."""
    by_name = {"double Segre surface" if r.name == "dS" else r.name: r for r in rows}
    shared = [name for name in records if name in by_name]
    off = [
        name
        for name in shared
        if not records[name].degree
        == by_name[name].counts[2]
        == lattice.degree(by_name[name].lattice_type.polygon)
    ]
    return shared, off


def test_record_degrees_are_the_lattice_degrees():
    # the merged rows a' and a'' repeat row a; "projected dS" has no lattice row
    rows = [row for row in verify.LATTICE_TABLE if row.merges_with is None]
    shared, off = _degree_mismatches(verify.RECORD_TABLE, rows)
    assert len(shared) == 7 and "projected dS" not in shared
    assert off == []
    # a wrong degree in either table is caught
    records = dict(verify.RECORD_TABLE)
    dp6 = records["dP6"]
    records["dP6"] = forms.CelestialRecord(dp6.circles, 5, dp6.ambient, dp6.singular_locus, dp6.group_name,
                                           dp6.moduli_dim, dp6.moebius_equals_full_aut, dp6.name)
    assert _degree_mismatches(records, rows)[1] == ["dP6"]
    miscounted = [
        verify.LatticeRow(r.ref, r.name, r.vertices, r.involution, (1, 4, 6), r.directions,
                          r.i2_dimension, r.merges_with) if r.ref == "e" else r
        for r in rows
    ]
    assert _degree_mismatches(verify.RECORD_TABLE, miscounted)[1] == ["ring cyclide"]


def test_moebius_pair_validation():
    assert forms.moebius_pair(FamilyCoeffs(1, 1, 1, 1)) == Signature(1, 8, 0)
    assert forms.moebius_pair(FamilyCoeffs(0, 1, 0, 1)) == Signature(1, 4, 4)
    # mixed signs give at least two positive and two negative squares
    for coeffs in ((1, -1, 1, 1), (1, -1, 0, 0), (2, 0, -1, 0), (-1, 3, 3, 3)):
        with pytest.raises(ValueError, match="not a sphere form"):
            forms.moebius_pair(FamilyCoeffs(*coeffs))


def test_moebius_pair_is_blind_to_an_overall_sign():
    # the signature is normalized, so a negative member needs no sign flip
    assert forms.moebius_pair(FamilyCoeffs(-1, -2, -1, -1)) == forms.moebius_pair(
        FamilyCoeffs(1, 2, 1, 1)
    )
    assert classify_family(FamilyCoeffs(-1, -2, -1, -1)) == classify_family(
        FamilyCoeffs(1, 2, 1, 1)
    )


def test_family_basis_is_the_head_of_the_segre_ideal_basis():
    # so every family member lies in the quadric ideal by construction
    assert forms.family_basis().basis == i2_segre().basis[:4]


SUPPORTS = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]


@st.composite
def family_coeffs(draw):
    """A member on any support pattern, all of one sign (often negative) or mixed.

    The entries mix heights: small rationals beside ones with numerators
    and denominators up to 10^6.
    """
    support = draw(st.sampled_from(SUPPORTS))
    signs = draw(st.sampled_from(("positive", "negative", "mixed")))
    low = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3)
    high = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)
    values = [0] * 4
    for k in support:
        x = draw(st.one_of(low, high))
        if signs == "negative" or (signs == "mixed" and draw(st.booleans())):
            x = -x
        values[k] = x
    return FamilyCoeffs(*values)


@given(family_coeffs())
@settings(deadline=None)
def test_the_real_form_is_the_moved_y_frame_form(c):
    # the x-frame generators are moved once; mu_transform of the y-frame
    # member is the reference
    assert family_form(c, "x").matrix == mu_transform(2, family_form(c, "y")).matrix


def test_so3_invariant_form_has_sphere_signature():
    from celestial import geometry

    assert signature(geometry.so3_invariant_form().matrix) == Signature(1, 5, 0)


def test_family_signature_formula():
    for coeffs in ((1, 1, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1), (0, 1, 0, 1), (2, 0, 0, 3)):
        c = FamilyCoeffs(*coeffs)
        nonzero = sum(1 for x in coeffs if x)
        assert signature(family_form(c, "x").matrix) == Signature(
            1, 2 * nonzero, 8 - 2 * nonzero
        )


def test_rigidity_identity_and_torus():
    c = FamilyCoeffs(1, 1, 1, 1)
    span = forms.family_basis()
    ident = rep_S(Matrix.identity(2), Matrix.identity(2))
    q = family_form(c, "y")
    assert ident.transpose() * q.matrix * ident == q.matrix

    torus = rep_S(Matrix([[2, 0], [0, Fraction(1, 2)]]), Matrix.identity(2))
    moved = torus.transpose() * q.matrix * torus
    coords = span.coordinates_of(forms.QuadraticForm(moved))
    assert coords == tuple(gauss(1) for _ in range(4))


def test_rigidity_unipotent_leaves_the_span():
    c = FamilyCoeffs(1, 1, 1, 1)
    span = forms.family_basis()
    shear = rep_S(Matrix([[1, 1], [0, 1]]), Matrix.identity(2))
    q = family_form(c, "y")
    moved = forms.QuadraticForm(shear.transpose() * q.matrix * shear)
    assert not span.contains(moved)


def test_rigidity_sample_check():
    assert rigidity_sample_check(FamilyCoeffs(1, 1, 1, 1), trials=25, seed=3)
    assert rigidity_sample_check(FamilyCoeffs(2, 1, 1, 1), trials=5, seed=5)
    assert rigidity_sample_check(FamilyCoeffs(0, 1, 0, 1), trials=5, seed=6)


def test_rigidity_sample_check_fails_when_the_torus_moves_coefficients(monkeypatch):
    # report a member other than the one whose quadric the trials transform
    real_form = forms.family_form
    other = FamilyCoeffs(1, 2, 1, 1)
    monkeypatch.setattr(forms, "family_form", lambda c, frame="y": real_form(other, frame))
    assert not rigidity_sample_check(FamilyCoeffs(1, 1, 1, 1), trials=1, seed=0)


def test_rigidity_sample_check_fails_when_the_torus_scales_the_member(monkeypatch):
    # 2*Q_c lies on the same torus orbit line as Q_c, but its coordinates are 2c
    real_form = forms.family_form
    monkeypatch.setattr(forms, "family_form", lambda c, frame="y": real_form(c, frame).scale(2))
    assert not rigidity_sample_check(FamilyCoeffs(1, 1, 1, 1), trials=1, seed=0)


def test_a_weyl_pair_swaps_c5_and_c7():
    # w normalizes the diagonal torus, so members with non-proportional
    # coefficients can be equivalent
    w = Matrix([[0, 1], [-1, 0]])
    a = family_form(FamilyCoeffs(1, 1, 1, 2), "y").matrix
    for pair in ((w, Matrix.identity(2)), (Matrix.identity(2), w)):
        s = rep_S(*pair)
        moved = QuadraticForm(s.transpose() * a * s)
        assert forms.family_basis().coordinates_of(moved) == tuple(map(gauss, (1, 1, 2, 1)))
    assert classify_family(FamilyCoeffs(1, 1, 1, 2)) == classify_family(FamilyCoeffs(1, 1, 2, 1))


def test_the_factor_swap_exchanges_c1_and_c3():
    # tau: (s, u) -> (u, s) permutes the y coordinates by the exponent map
    # (a, b) -> (b, a); it lies in Aut(P^1 x P^1) outside PGL2 x PGL2, so it
    # also normalizes the torus, and maps I2 and the family span to themselves
    tau = tuple(Y_EXPONENTS.index((b, a)) for a, b in Y_EXPONENTS)

    def swap(q):
        return QuadraticForm(q.matrix.reindex(tau, tau))

    i2, family = i2_segre(), forms.family_basis()
    assert all(i2.contains(swap(q)) for q in i2.basis)
    images = [family.coordinates_of(swap(q)) for q in family.basis]
    swapped = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert images == [tuple(map(gauss, row)) for row in swapped]
    # a real equivalence in the frames of sigma_0, sigma_2 (the family's) and
    # sigma_3, but not of sigma_1
    commutes = [all(apply_sigma(i, swap(q)) == swap(apply_sigma(i, q)) for q in i2.basis) for i in range(4)]
    assert commutes == [True, False, True, True]
    assert classify_family(FamilyCoeffs(1, 2, 3, 5)) == classify_family(FamilyCoeffs(2, 1, 3, 5))


def test_corollary_signatures():
    q0, q3 = corollary_forms()
    assert (signature(q0.matrix), signature(q3.matrix)) == (Signature(4, 5, 0), Signature(3, 6, 0))


def test_corollary_forms_match_the_printed_shapes():
    q0, q3 = corollary_forms()
    printed0 = form_from_pairs(
        [((0, 0), 2), ((1, 2), -2), ((3, 4), -2), ((5, 6), 1), ((7, 8), 1)], 9
    )
    printed3 = form_from_pairs(
        [((0, 0), 2), ((2, 3), -4), ((1, 4), -4), ((5, 6), 1), ((7, 7), 1), ((8, 8), 1)],
        9,
    )
    assert q0.matrix.scale(2 / q0.matrix[0, 0]) == printed0.matrix
    assert q3.matrix.scale(2 / q3.matrix[0, 0]) == printed3.matrix
    assert q0.is_real and q3.is_real


def test_corollary_source_form_lies_in_the_ideal():
    span = i2_segre()
    inv = forms.liealg.invariant_forms(forms.liealg.FULL_BASIS, span)
    assert len(inv) == 1
    assert span.contains(inv.basis[0])


def test_closed_form_random_sl2_matches_the_three_shears():
    rng, ref = random.Random("sl2-stream"), random.Random("sl2-stream")
    for _ in range(200):
        a, b, c = (random_fraction(ref) for _ in range(3))
        shears = Matrix([[1, a], [0, 1]]) * Matrix([[1, 0], [b, 1]]) * Matrix([[1, c], [0, 1]])
        assert random_sl2(rng) == shears
    assert rng.getstate() == ref.getstate()  # the stream is drawn the same way


def test_rigidity_check_fails_for_a_span_with_another_stabilizer(monkeypatch):
    basis = i2_segre().basis
    wrong = FormSpan(basis[:3] + (QuadraticForm(basis[3].matrix + basis[4].matrix),))
    monkeypatch.setattr(forms, "family_basis", lambda: wrong)
    (result,) = verify.run_checks(only="rigidity-sampling")
    assert not result.ok
    assert result.detail == "the family span has a 1-dimensional stabilizer, not the torus"


@pytest.mark.parametrize(
    "stabilizer", [[liealg.S1], [liealg.S1, liealg.S2, liealg.T1], [liealg.S1, liealg.T2]],
    ids=["s1", "s1,s2,t1", "s1,t2"],
)
def test_rigidity_check_fails_when_the_stabilizer_is_not_the_torus(monkeypatch, stabilizer):
    monkeypatch.setattr(liealg, "span_stabilizer", lambda span: stabilizer)
    (result,) = verify.run_checks(only="rigidity-sampling")
    assert not result.ok
    assert result.detail == (
        f"the family span has a {len(stabilizer)}-dimensional stabilizer, not the torus"
    )


def test_verify_solves_the_full_invariant_forms_once(monkeypatch):
    calls = []
    solve = liealg.invariant_forms
    monkeypatch.setattr(liealg, "invariant_forms", lambda g, ambient: calls.append(tuple(g)) or solve(g, ambient))
    liealg.full_invariant_forms.cache_clear()
    try:
        results = [verify.run_checks(only=c)[0] for c in ("invariant-forms", "hyperquadric-signatures")]
    finally:
        liealg.full_invariant_forms.cache_clear()
    assert [(r.ok, r.detail) for r in results] == [
        (True, "11/11 span identities"),
        (True, "signatures (4,5) and (3,6)"),
    ]
    assert calls.count(liealg.FULL_BASIS) == 1


def test_hyperquadric_signatures_pass_on_their_own():
    liealg.full_invariant_forms.cache_clear()
    (result,) = verify.run_checks(only="hyperquadric-signatures")
    assert (result.ok, result.detail) == (True, "signatures (4,5) and (3,6)")


@pytest.mark.parametrize("seed", range(12))
def test_random_congruence_is_the_product_of_its_shears(seed):
    for n in (3, 4, 5):
        got = verify._random_congruence(random.Random(f"{seed}:{n}"), n)
        assert got == shear_product_congruence(random.Random(f"{seed}:{n}"), n)
