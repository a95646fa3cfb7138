"""Divisor classes, cyclide models, and the Veronese track."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial.exact import Matrix, Signature, gauss, signature
from celestial import geometry, verify
from celestial.geometry import (
    BLOWUP_CONFIGS,
    L0,
    L1,
    NSClass,
    VERONESE_EXPONENTS,
    adjugate_form,
    b_classes,
    cyclide_pipeline,
    dynkin,
    fiber_class,
    near_class,
    ns_product,
    so3_invariant_form,
    sphere_member,
    stereographic_check,
    veronese_data,
    veronese_invariant_forms,
    veronese_signature_witnesses,
)
from celestial.segre import form_from_pairs, FormSpan, MonomialParam, QuadraticForm
from celestial.verify import EXPECTED_SINGULAR_STRINGS
from oracles import (
    EXCEPTIONAL,
    SQRT2,
    QuadExt,
    cofactor_adjugate_form,
    combination_witnesses,
    evaluate,
    horn_point,
    spindle_point,
)


def test_pairing_values():
    assert ns_product(L0, L1) == 1
    assert ns_product(L0, L0) == 0
    e1, e2, e3, e4 = EXCEPTIONAL
    assert ns_product(e1, e1) == -1
    assert ns_product(e1, e2) == 0
    b1 = near_class(1, 3)
    b2 = near_class(2, 4)
    assert ns_product(b1, b2) == 0
    assert ns_product(b1, fiber_class(2, 1, 2)) == 1


def test_pairing_is_symmetric_and_conjugation_equivariant():
    classes = [L0, L1, *EXCEPTIONAL, near_class(1, 3), fiber_class(1, 1, 3)]
    for a in classes:
        for b in classes:
            assert ns_product(a, b) == ns_product(b, a)
            assert ns_product(a.conjugate(), b.conjugate()) == ns_product(a, b)


def test_b_classes_of_the_configurations():
    assert b_classes(BLOWUP_CONFIGS["a"]) == frozenset()
    assert b_classes(BLOWUP_CONFIGS["b"]) == frozenset()
    assert b_classes(BLOWUP_CONFIGS["c"]) == {fiber_class(2, 1, 2)}
    assert b_classes(BLOWUP_CONFIGS["d"]) == {
        fiber_class(1, 1, 3),
        fiber_class(1, 2, 4),
        fiber_class(2, 1, 4),
        fiber_class(2, 2, 3),
    }
    assert b_classes(BLOWUP_CONFIGS["f"]) == {
        fiber_class(1, 1, 3),
        fiber_class(1, 2, 4),
        fiber_class(2, 1, 2),
        near_class(1, 3),
        near_class(2, 4),
    }


def test_b_classes_satisfy_the_numerical_constraints():
    for cfg in BLOWUP_CONFIGS.values():
        anticanonical = NSClass(
            (2, 2, *(-1 if k in cfg.points else 0 for k in (1, 2, 3, 4)))
        )
        for c in b_classes(cfg):
            assert ns_product(c, c) == -2
            assert ns_product(anticanonical, c) == 0


def test_dynkin_strings():
    for tag, cfg in BLOWUP_CONFIGS.items():
        assert dynkin(b_classes(cfg)) == EXPECTED_SINGULAR_STRINGS[tag]


def test_dynkin_rejects_branching_graphs():
    star = frozenset(
        {
            near_class(1, 3),
            near_class(2, 4),
            fiber_class(2, 1, 2),
            fiber_class(1, 3, 4),
        }
    )
    with pytest.raises(ValueError):
        dynkin(star)


def test_quadratic_extension_field():
    x = QuadExt.of(gauss(Fraction(1, 2))) + SQRT2
    y = x * x
    assert y == QuadExt.of(gauss(Fraction(9, 4))) + SQRT2
    assert (x / x) == QuadExt.of(gauss(1))
    assert SQRT2 * SQRT2 == QuadExt.of(gauss(2))
    assert not (x - x)


def test_cyclide_pipeline_matches_the_printed_pencils():
    x_s, x_h = cyclide_pipeline()
    spindle_expected = FormSpan(
        (
            form_from_pairs([((1, 1), 1), ((2, 2), 1), ((4, 4), -1)], 5),
            form_from_pairs([((0, 0), 1), ((3, 3), -1), ((4, 4), -2)], 5),
        ),
    )
    horn_expected = FormSpan(
        (
            form_from_pairs([((2, 2), 1), ((0, 1), 2), ((1, 1), 2)], 5),
            form_from_pairs(
                [((0, 0), 1), ((0, 1), 2), ((1, 1), 1), ((3, 3), -1), ((4, 4), -1)],
                5,
            ),
        ),
    )
    assert x_s.equals(spindle_expected)
    assert x_h.equals(horn_expected)
    assert x_s.coords == (0, 1, 2, 3, 4)
    assert x_h.coords == (0, 3, 4, 6, 7)


def test_cyclide_pencils_contain_the_three_sphere():
    for span in cyclide_pipeline():
        coords = sphere_member(span)
        assert coords is not None
        assert signature(span.combination(coords).matrix) == Signature(1, 4, 0)


def test_sqrt2_congruence_rejects_a_surviving_sqrt2_part():
    a = QuadraticForm(Matrix.identity(2))
    t0 = Matrix.identity(2)
    t1 = Matrix([[0, 1], [1, 0]])
    # T = t0 + sqrt(2)*t1 with t1 symmetric: T^T A T keeps 2*sqrt(2)*t1
    with pytest.raises(ValueError, match="did not eliminate sqrt"):
        geometry._sqrt2_congruence(a, t0, t1)
    # an antisymmetric t1 cancels: T^T T = I + 2 * t1^T t1
    skew = Matrix([[0, 1], [-1, 0]])
    q = geometry._sqrt2_congruence(a, t0, skew)
    assert q.matrix == Matrix.identity(2).scale(3)


def test_pencils_annihilate_their_parametrizations():
    x_s, x_h = cyclide_pipeline()
    for t in (Fraction(1, 2), Fraction(2), Fraction(3, 5)):
        for u in (Fraction(1, 3), Fraction(2), Fraction(7, 2)):
            sp = spindle_point(t, u)
            for q in x_s.basis:
                assert not evaluate(q, sp)
            hp = horn_point(t, u)
            for q in x_h.basis:
                assert not evaluate(q, hp)


def test_stereographic_images_are_a_cone_and_a_cylinder():
    report = stereographic_check()
    assert report.ok
    assert report.cone_constant == Fraction(1)
    assert report.cylinder_radius_sq == Fraction(1)
    assert report.samples == 2 * 49 - report.skipped


def test_veronese_parametrization_and_ideal():
    span = veronese_data()
    param = MonomialParam(tuple(VERONESE_EXPONENTS[k] for k in span.coords), span.coords)
    assert len(span) == 6
    assert param.eval(1, 1) == tuple(gauss(1) for _ in range(6))
    pt = param.eval(2, 3)
    assert all(not evaluate(q, pt) for q in span.basis)


def test_so3_invariant_form_is_the_printed_one():
    q = so3_invariant_form()
    expected = form_from_pairs(
        [((1, 1), 1), ((2, 2), 1), ((3, 3), 1), ((0, 4), -1), ((0, 5), -1), ((4, 5), -1)],
        6,
    )
    assert q.matrix == expected.matrix
    assert signature(q.matrix) == Signature(1, 5, 0)


def test_full_sl3_leaves_nothing():
    assert len(veronese_invariant_forms(geometry.SL3_BASIS.values())) == 0


@pytest.mark.parametrize("g", [Matrix.zero(2, 2), Matrix.zero(1, 9), Matrix.zero(3, 2)])
def test_veronese_algebra_elements_must_be_3x3(g):
    with pytest.raises(ValueError, match="3x3"):
        veronese_invariant_forms([geometry.so3_basis()[0], g])


def test_signature_witnesses():
    witnesses = veronese_signature_witnesses()
    required = {
        Signature(1, 2, 3),
        Signature(1, 3, 2),
        Signature(1, 5, 0),
        Signature(2, 2, 2),
        Signature(3, 3, 0),
    }
    assert required <= witnesses
    full_rank = {s for s in witnesses if s.rank == 6}
    assert full_rank <= {Signature(1, 5, 0), Signature(3, 3, 0)}


def test_single_generator_witness():
    span = veronese_data()
    # the generator comparing the square of one coordinate with a product
    q = span.basis[2]
    assert signature(q.matrix) == Signature(1, 2, 3)


# ---------------------------------------------------------------------------
# the adjugate model of the Veronese quadrics


def test_the_certificate_gives_the_set_of_the_height_one_enumeration():
    assert veronese_signature_witnesses() == combination_witnesses()


def test_y_is_read_off_the_monomials():
    # Y_ss = y4, Y_tt = y5, Y_uu = y0, Y_st = y1, Y_su = y2, Y_tu = y3
    assert geometry._VERONESE_Y == ((4, 1, 2), (1, 5, 3), (2, 3, 0))


def _diagonal(r):
    return [[r[p] * (p == q) for q in range(3)] for p in range(3)]


def test_the_representatives_have_the_five_nonzero_inertias():
    assert geometry._NONZERO_INERTIAS == {
        Signature(0, 1, 2), Signature(0, 2, 1), Signature(0, 3, 0), Signature(1, 1, 1), Signature(1, 2, 0),
    }
    inertias = {signature(Matrix(_diagonal(r))) for r in geometry._INERTIA_REPRESENTATIVES}
    assert inertias == geometry._NONZERO_INERTIAS


@st.composite
def nonzero_symmetric_3x3(draw):
    entries = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6).filter(any))
    it = iter(entries)
    a = [[0] * 3 for _ in range(3)]
    for p, q in geometry._SYM3_UPPER:
        a[p][q] = a[q][p] = next(it)
    return a


@given(nonzero_symmetric_3x3())
@settings(max_examples=60, deadline=None)
def test_an_adjugate_form_has_the_signature_of_its_inertia_representative(a):
    q = adjugate_form(a)
    assert q == cofactor_adjugate_form(a)
    assert veronese_data().contains(q)
    rep = next(r for r in geometry._INERTIA_REPRESENTATIVES
               if signature(Matrix(_diagonal(r))) == signature(Matrix(a)))
    assert signature(q.matrix) == signature(adjugate_form(_diagonal(rep)).matrix)


@given(nonzero_symmetric_3x3())
@settings(max_examples=15, deadline=None)
def test_adjugate_forms_and_their_signatures_match_sympy(a):
    sympy = pytest.importorskip("sympy")
    y = sympy.symbols("y0:6")
    big_y = sympy.Matrix(3, 3, lambda p, q: y[geometry._VERONESE_Y[p][q]])
    expected = sympy.expand((sympy.Matrix(a) * big_y.adjugate()).trace())
    m = adjugate_form(a).matrix
    ours = sum(sympy.Rational(str(m[p, q].re)) * y[p] * y[q] for p in range(6) for q in range(6))
    assert sympy.expand(ours - expected) == 0
    # the form is real symmetric, so its characteristic polynomial has real
    # roots only and Descartes' rule of signs counts the positive ones exactly
    hessian = sympy.hessian(expected, y) / 2
    coeffs = sympy.Poly(hessian.charpoly().as_expr()).all_coeffs()
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c)
    nonzero = [c for c in coeffs if c]
    pos = sum(1 for x, w in zip(nonzero, nonzero[1:]) if x * w < 0)
    neg = 6 - pos - zero
    assert signature(m) == Signature(min(pos, neg), max(pos, neg), zero)


def _veronese_check():
    (result,) = verify.run_checks(only="veronese-signatures")
    return result


@pytest.mark.parametrize("flip", [(0,), (1,), (0, 1)], ids=["first-term", "second-term", "whole-cofactor"])
@pytest.mark.parametrize("entry", geometry._GL3_UNITS, ids=str)
def test_a_wrong_cofactor_sign_fails_the_check(monkeypatch, entry, flip):
    right = geometry._adjugate_terms

    def wrong(i, j):
        terms = right(i, j)
        if (i, j) != entry:
            return terms
        return tuple((pair, -c if k in flip else c) for k, (pair, c) in enumerate(terms))

    monkeypatch.setattr(geometry, "_adjugate_terms", wrong)
    assert not _veronese_check().ok


@pytest.mark.parametrize("index", range(5))
def test_a_representative_of_the_wrong_inertia_fails_the_check(monkeypatch, index):
    reps = list(geometry._INERTIA_REPRESENTATIVES)
    reps[index] = reps[(index + 1) % 5]  # one inertia twice, another missing
    monkeypatch.setattr(geometry, "_INERTIA_REPRESENTATIVES", tuple(reps))
    result = _veronese_check()
    assert not result.ok
    assert result.detail.startswith("RuntimeError: the representatives miss a nonzero inertia @ geometry.py:")


@pytest.mark.parametrize("skipped", geometry._GL3_UNITS, ids=str)
def test_an_equivariance_loop_that_skips_one_unit_fails_the_check(monkeypatch, skipped):
    geometry._veronese_action_table()  # the cached table keeps all nine units
    monkeypatch.setattr(geometry, "_GL3_UNITS", tuple(u for u in geometry._GL3_UNITS if u != skipped))
    result = _veronese_check()
    assert not result.ok
    assert result.detail.startswith("RuntimeError: the adjugate forms are not gl3-equivariant @ geometry.py:")


@pytest.mark.parametrize(
    "convention",
    [
        lambda right, k, l: right(l, k),  # u^T A + A u in place of u A + A u^T
        lambda right, k, l: right(k, l).scale(-1),  # the opposite sign
        lambda right, k, l: right(k, l).transpose(),
    ],
    ids=["transposed-unit", "negated", "transposed-map"],
)
def test_another_convention_for_the_action_on_a_fails_the_check(monkeypatch, convention):
    right = geometry._sym3_action
    monkeypatch.setattr(geometry, "_sym3_action", lambda k, l: convention(right, k, l))
    result = _veronese_check()
    assert not result.ok
    assert result.detail.startswith("RuntimeError: the adjugate forms are not gl3-equivariant @ geometry.py:")


# ---------------------------------------------------------------------------
# the integer-point evaluation against QuadExt evaluation

_OUTSIDE = (
    form_from_pairs([((0, 0), 1)], 5),
    form_from_pairs([((0, 1), 1), ((2, 4), -3)], 5),
    form_from_pairs([((1, 1), 1), ((2, 2), 1), ((4, 4), -1), ((0, 3), 1)], 5),
    form_from_pairs([((i, i), 1) for i in range(5)], 5),
)


_MODELS = [
    (0, spindle_point, geometry._spindle_integer_point),
    (1, horn_point, geometry._horn_integer_point),
]
_GRID = [(Fraction(t, 5), Fraction(u, 4)) for t in (-3, 1, 2, 7) for u in (1, 3, 6, -5)]


@pytest.mark.parametrize("index, point, integer_point", _MODELS, ids=["spindle", "horn"])
def test_integer_points_vanish_exactly_where_the_quadext_points_do(index, point, integer_point):
    pencil = cyclide_pipeline()[index]
    points = [point(t, u) for t, u in _GRID]
    ints = [integer_point(t, u) for t, u in _GRID]
    for a, b in ints:
        assert all(isinstance(x, int) for x in a + b)
    assert geometry._vanishes(pencil, ints)
    for q in pencil.basis + _OUTSIDE:
        one = FormSpan((q,))
        for p, pt in zip(points, ints):
            assert geometry._vanishes(one, [pt]) == (not evaluate(q, p))
    # a form outside the pencil fails on the whole grid
    for q in _OUTSIDE:
        assert any(evaluate(q, p) for p in points)
        assert not geometry._vanishes(FormSpan(pencil.basis[:1] + (q,)), ints)


@pytest.mark.parametrize("index, point, integer_point", _MODELS, ids=["spindle", "horn"])
def test_integer_point_is_a_multiple_of_the_quadext_point(index, point, integer_point):
    for t, u in _GRID:
        p = point(t, u)
        a, b = integer_point(t, u)
        k = next(k for k, x in enumerate(p) if x)
        scale = QuadExt(gauss(a[k]), gauss(b[k])) / p[k]
        assert scale and not scale.b  # a nonzero rational multiple
        assert all(QuadExt(gauss(ai), gauss(bi)) == x * scale for x, ai, bi in zip(p, a, b))


def test_halved_witnesses_equal_the_full_set():
    span = veronese_data()
    rows = [c for c in itertools.product((-1, 0, 1), repeat=len(span)) if any(c)]
    full = frozenset(signature(q.matrix) for q in span.combinations(rows))
    assert len(rows) == 728
    assert veronese_signature_witnesses() == full
