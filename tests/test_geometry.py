"""Divisor classes, cyclide models, and the Veronese track."""

import itertools
from fractions import Fraction

import pytest

from celestial.exact import Matrix, Signature, gauss, signature
from celestial import geometry
from celestial.geometry import (
    BLOWUP_CONFIGS,
    L0,
    L1,
    NSClass,
    VERONESE_EXPONENTS,
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
from oracles import EXCEPTIONAL, SQRT2, QuadExt, evaluate, horn_point, spindle_point


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
