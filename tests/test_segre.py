"""The double Segre surface: parametrization, quadrics, real structures."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from celestial.exact import GaussianRational, Matrix, gauss
from celestial import forms, geometry, liealg, segre, verify
from celestial.segre import (
    SEGRE_PARAM,
    QuadraticForm,
    Y_EXPONENTS,
    FormSpan,
    MonomialParam,
    apply_sigma,
    form_from_pairs,
    i2_dimension,
    i2_segre,
    mu_matrix,
    mu_transform,
    rep_S,
    toric_projection,
    toric_quadrics,
    torus_sigma,
)
from celestial.verify import class_param
from oracles import (
    checked_rows,
    eval_lift,
    evaluate,
    evaluation_nullity,
    kron_sym2,
    solve_coordinates_of,
    toric_forms,
)

# the generator lists once printed in the package, y_a*y_b - y_c*y_d per pair
SEGRE_QUADRIC_PAIRS = (
    ((0, 0), (1, 2)), ((0, 0), (3, 4)), ((0, 0), (5, 6)), ((0, 0), (7, 8)),
    ((1, 1), (5, 7)), ((2, 2), (6, 8)), ((3, 3), (5, 8)), ((4, 4), (6, 7)),
    ((0, 1), (4, 5)), ((0, 2), (3, 6)), ((0, 3), (2, 5)), ((0, 4), (1, 6)),
    ((0, 1), (3, 7)), ((0, 2), (4, 8)), ((0, 3), (1, 8)), ((0, 4), (2, 7)),
    ((0, 5), (1, 3)), ((0, 6), (2, 4)), ((0, 7), (1, 4)), ((0, 8), (2, 3)),
)
VERONESE_QUADRIC_PAIRS = (
    ((1, 1), (4, 5)), ((0, 1), (2, 3)), ((2, 2), (0, 4)),
    ((3, 3), (0, 5)), ((1, 2), (3, 4)), ((1, 3), (2, 5)),
)


def _projection_param(span):
    """The monomial parametrization of a toric projection, read off its coordinates."""
    return MonomialParam(tuple(Y_EXPONENTS[k] for k in span.coords), span.coords)


def _difference(pair, dim):
    (a, b), (c, d) = pair
    return form_from_pairs([((a, b), 1), ((c, d), -1)], dim).matrix


def _binomial_terms(q):
    """The (pair, sign) of the two monomials of a binomial form."""
    m = q.matrix
    terms = [((i, j), m[i, j].re > 0) for i in range(q.dim) for j in range(i, q.dim) if m[i, j]]
    assert len(terms) == 2 and terms[0][1] != terms[1][1]
    return terms


def test_eval_param_at_torus_identity():
    assert SEGRE_PARAM.eval(1, 1) == tuple(gauss(1) for _ in range(9))


def test_eval_param_exact_values():
    pt = SEGRE_PARAM.eval(2, 1)
    expected = [1, 2, Fraction(1, 2), 1, 1, 2, Fraction(1, 2), 2, Fraction(1, 2)]
    assert pt == tuple(gauss(x) for x in expected)


def test_eval_param_rejects_zero():
    with pytest.raises(ValueError):
        SEGRE_PARAM.eval(0, 1)


def test_ideal_has_dimension_twenty_and_annihilates_points():
    span = i2_segre()
    assert len(span) == 20
    pt = SEGRE_PARAM.eval(3, 5)
    assert all(not evaluate(q, pt) for q in span.basis)


def test_ideal_vanishes_on_deterministic_grid():
    span = i2_segre()
    for a in range(1, 8):
        for b in range(1, 8):
            pt = SEGRE_PARAM.eval(Fraction(a, 3), Fraction(b, 5))
            for q in span.basis:
                assert not evaluate(q, pt)


def test_ideal_dimension_recomputation_table():
    dims = {tag: i2_dimension(class_param(tag)) for tag in "abcdefgh"}
    assert dims == {"a": 20, "b": 9, "c": 9, "d": 6, "e": 2, "f": 2, "g": 2, "h": 1}
    assert dims == {tag: evaluation_nullity(class_param(tag)) for tag in "abcdefgh"}
    # stored generator list is validated against the recomputation
    assert len(i2_segre()) == dims["a"]


def test_derived_segre_quadrics_match_the_printed_pairs():
    derived = [q.matrix for q in i2_segre().basis]
    assert set(derived) == {_difference(p, 9) for p in SEGRE_QUADRIC_PAIRS}
    # family_basis() is basis[:4]: y0^2 - y1y2, y0^2 - y3y4, y0^2 - y5y6, y0^2 - y7y8
    assert derived[:4] == [_difference(p, 9) for p in SEGRE_QUADRIC_PAIRS[:4]]


def test_derived_veronese_quadrics_match_the_printed_pairs_up_to_sign():
    derived = {q.matrix for q in geometry.veronese_data().basis}
    printed = [_difference(p, 6) for p in VERONESE_QUADRIC_PAIRS]
    assert len(derived) == len(printed)
    assert all(m in derived or m.scale(-1) in derived for m in printed)


@pytest.mark.parametrize("drop", [{5, 6}, {1, 2, 5, 6}, {5, 6, 7, 8}, {1, 2, 5, 8}])
def test_used_projections_keep_the_order_of_the_restricted_pairs(drop):
    span = toric_projection(drop)
    pos = {c: k for k, c in enumerate(span.coords)}
    restricted = [
        _difference(((pos[a], pos[b]), (pos[c], pos[d])), len(pos))
        for (a, b), (c, d) in SEGRE_QUADRIC_PAIRS
        if {a, b, c, d} <= pos.keys()
    ]
    assert [q.matrix for q in span.basis] == restricted


def test_every_projection_has_the_full_binomial_span():
    rng = random.Random(11)
    spans = 0
    for size in range(10):
        for drop in itertools.combinations(range(9), size):
            try:
                span = toric_projection(drop)
            except ValueError:
                continue
            param = _projection_param(span)
            spans += 1
            assert len(span) == i2_dimension(param) == evaluation_nullity(param)
            s, u = (Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in "su")
            pt = param.eval(s, u)
            assert not any(evaluate(q, pt) for q in span.basis)
    assert spans == 458


_small_points = st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=7)


@given(_small_points)
@settings(max_examples=25, deadline=None)
def test_binomial_span_matches_the_nullity(points):
    points = sorted(points)
    x0, y0 = points[0]
    assume(any(
        (x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0)
        for (x1, y1), (x2, y2) in itertools.combinations(points, 2)
    ))
    param = MonomialParam(tuple(points))
    span = toric_quadrics(param)
    assert len(span) == i2_dimension(param) == evaluation_nullity(param)
    for q in span.basis:
        ((a, b), _), ((c, d), _) = _binomial_terms(q)
        assert points[a][0] + points[b][0] == points[c][0] + points[d][0]
        assert points[a][1] + points[b][1] == points[c][1] + points[d][1]


def test_the_square_classes_have_twenty_binomials():
    assert [len(toric_quadrics(class_param(t))) for t in ("a", "a'", "a''")] == [20, 20, 20]


def test_lemma_i2_fails_when_a_binomial_count_is_off(monkeypatch):
    real = verify.toric_quadrics

    def one_short(param):
        span = real(param)
        return FormSpan(span.basis[1:]) if param == class_param("e") else span

    monkeypatch.setattr(verify, "toric_quadrics", one_short)
    (result,) = verify.run_checks(only="lemma-i2")
    assert not result.ok
    # e and f share the diamond, so both parametrizations lose a binomial
    assert result.detail == "a:20 b:9 c:9 d:6 e:2 f:2 g:2 h:1; binomials e:1 f:1"


def _pair_sums(points, diagonal: bool) -> list[tuple[int, int]]:
    n = len(points)
    return [
        (points[a][0] + points[b][0], points[a][1] + points[b][1])
        for a in range(n)
        for b in range(a if diagonal else a + 1, n)
    ]


def _without_the_diagonal(param):
    n = len(param)
    return n * (n + 1) // 2 - len(set(_pair_sums(param.exponents, diagonal=False)))


def _with_multiplicity(param):
    n = len(param)
    return n * (n + 1) // 2 - len(_pair_sums(param.exponents, diagonal=True))


@pytest.mark.parametrize(
    "count, detail",
    [
        (_without_the_diagonal, "a:24 b:15 c:14 d:9 e:6 f:6 g:5 h:5"),
        (_with_multiplicity, "a:0 b:0 c:0 d:0 e:0 f:0 g:0 h:0"),
    ],
    ids=["without-the-diagonal", "with-multiplicity"],
)
def test_lemma_i2_fails_on_a_wrong_count_of_the_sums(monkeypatch, count, detail):
    monkeypatch.setattr(verify, "i2_dimension", count)
    (result,) = verify.run_checks(only="lemma-i2")
    assert not result.ok
    assert result.detail == detail


def test_sigma_commutes_with_the_parametrization():
    s, u = gauss("2"), gauss("-1+3i")
    for i in range(4):
        lhs = apply_sigma(i, SEGRE_PARAM.eval(s, u))
        rhs = SEGRE_PARAM.eval(*torus_sigma(i, s, u))
        assert _same_projective_point(lhs, rhs)


def test_sigma_three_swaps_factors():
    s, u = gauss(2), gauss(5)
    lhs = apply_sigma(3, SEGRE_PARAM.eval(s, u))
    rhs = SEGRE_PARAM.eval(u.conjugate(), s.conjugate())
    assert _same_projective_point(lhs, rhs)


def _same_projective_point(p, q) -> bool:
    return any(p) and any(q) and Matrix([p, q]).rank() == 1


def test_derived_sigma_permutations_match_the_printed_tables():
    assert segre.SIGMA_PERMS == (
        (0, 1, 2, 3, 4, 5, 6, 7, 8),
        (0, 2, 1, 3, 4, 8, 7, 6, 5),
        (0, 2, 1, 4, 3, 6, 5, 8, 7),
        (0, 3, 4, 1, 2, 5, 6, 8, 7),
    )


def test_derived_torus_sigma_matches_the_entrywise_rules():
    s, u = gauss("2+i"), gauss("-1/3+2i")
    cs, cu = s.conjugate(), u.conjugate()
    assert torus_sigma(0, s, u) == (cs, cu)
    assert torus_sigma(1, s, u) == (1 / cs, cu)
    assert torus_sigma(2, s, u) == (1 / cs, 1 / cu)
    assert torus_sigma(3, s, u) == (cu, cs)
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            torus_sigma(bad, s, u)


def test_derived_tensor_positions_match_the_printed_table():
    # position of y_k in the tensor basis (s^2,st,t^2) x (u^2,uw,w^2)
    assert tuple(3 * f + g for f, g in segre.Y_FACTORS) == (4, 1, 7, 3, 5, 0, 8, 2, 6)


def test_derived_veronese_monomials_match_the_printed_table():
    from celestial.geometry import VERONESE_MONOMIALS

    assert VERONESE_MONOMIALS == (
        (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0), (0, 2, 0),
    )


def test_span_combinations_are_the_coefficient_sums():
    span = i2_segre()
    rows = [[k % 3 - 1 for k in range(j, j + 20)] for j in range(4)] + [[gauss("1/2-i")] * 20]
    for row, q in zip(rows, span.combinations(rows), strict=True):
        total = Matrix.zero(9, 9)
        for c, form in zip(row, span.basis):
            total = total + form.matrix.scale(c)
        assert q.matrix == total


def test_sigma_is_an_involution_on_points_and_forms():
    pt = SEGRE_PARAM.eval(gauss("2+i"), gauss("3-2i"))
    for i in range(4):
        assert apply_sigma(i, apply_sigma(i, pt)) == pt
        for q in i2_segre().basis:
            assert apply_sigma(i, apply_sigma(i, q)) == q


def test_sigma_fixes_real_forms_trivially():
    q = i2_segre().basis[0]
    assert apply_sigma(0, q) == q


def test_ideal_span_is_sigma_closed():
    span = i2_segre()
    for i in range(4):
        for q in span.basis:
            assert span.contains(apply_sigma(i, q))


def _sigma_by_products(i, q):
    """L^T conj(A) L with L the 9x9 permutation matrix of sigma_i: the reference for apply_sigma."""
    perm = segre.SIGMA_PERMS[i]
    l = Matrix([[1 if j == perm[k] else 0 for j in range(9)] for k in range(9)])
    return l.transpose() * q.matrix.conjugate() * l


NON_REAL_FORMS = (
    form_from_pairs([((0, 0), "1+i"), ((1, 2), "-2i"), ((5, 7), "1/3")], 9),
    form_from_pairs([((k, (2 * k + 1) % 9), GaussianRational(Fraction(k - 4), Fraction(k + 1, 3))) for k in range(9)], 9),
    i2_segre().combination([gauss("1/2-i") ** k for k in range(20)]),
)


def test_sigma_on_forms_is_the_permutation_product():
    for i in range(4):
        for q in i2_segre().basis + NON_REAL_FORMS:
            assert apply_sigma(i, q).matrix == _sigma_by_products(i, q)


def test_sigma_rejects_forms_off_p8():
    with pytest.raises(ValueError):
        apply_sigma(1, form_from_pairs([((0, 1), 1)], 5))


def test_form_span_coords_are_keyword_only():
    basis = i2_segre().basis[:2]
    for stale in ("x", tuple(range(9))):
        with pytest.raises(TypeError):
            FormSpan(basis, stale)
    with pytest.raises(TypeError):
        segre.QuadraticForm(basis[0].matrix, "y")
    assert FormSpan(basis, coords=tuple(range(1, 10))).coords == tuple(range(1, 10))


def test_form_span_coords_must_match_the_size_of_the_forms():
    i2 = i2_segre()
    for coords in ((0, 1, 2), tuple(range(10))):
        with pytest.raises(ValueError, match="coords"):
            FormSpan(i2.basis[:2], coords=coords)
    assert FormSpan((), coords=(0, 1, 2)).coefficients.cols == 6


def _toric_cases():
    """I2, the Veronese surface, the eight lattice classes and the four drop sets in use."""
    cases = {"i2": SEGRE_PARAM, "veronese": MonomialParam(geometry.VERONESE_EXPONENTS)}
    cases.update((row.ref, class_param(row.ref)) for row in verify.LATTICE_TABLE if not row.merges_with)
    for drop in (geometry.SPINDLE_DROP, geometry.HORN_DROP, {5, 6}, {1, 2, 5, 6}):
        cases[f"drop{sorted(drop)}"] = drop
    return cases


_TORIC_CASES = _toric_cases()


@pytest.mark.parametrize("name", list(_TORIC_CASES))
def test_toric_spans_match_the_spans_built_from_their_forms(name):
    case = _TORIC_CASES[name]
    if isinstance(case, MonomialParam):
        param, span = case, toric_quadrics(case)
    else:
        span = toric_projection(case)
        param = _projection_param(span)
    expected = toric_forms(param)
    assert span.basis == expected and len(span) == len(expected)
    assert span.coefficients == checked_rows(expected, len(param))
    assert (span.coords, span.dim) == (param.coords, len(param))


def test_the_family_span_is_the_first_four_forms_of_i2():
    family = forms.family_basis()
    expected = toric_forms(SEGRE_PARAM)[:4]
    assert family.basis == expected
    assert family.coefficients == checked_rows(expected, 9)
    assert family.coords == tuple(range(9))


def test_spans_built_from_rows_are_never_ranked(monkeypatch):
    i2 = i2_segre()
    liealg.invariant_forms([liealg.S1], i2)  # the action table and its pieces, ranked or not
    shapes = []
    rank = Matrix.rank

    def counting(m):
        shapes.append((m.rows, m.cols))
        return rank(m)

    monkeypatch.setattr(Matrix, "rank", counting)
    span = liealg.invariant_forms([liealg.S1, liealg.T2], i2)
    family = forms.family_basis.__wrapped__()
    assert (len(span.basis), len(family.basis)) == (len(span), 4)
    assert shapes == []
    # the collinearity check on the lattice differences, and not the 20 binomial rows
    assert len(toric_quadrics(SEGRE_PARAM).basis) == 20
    assert len(shapes) == 1 and shapes[0][1] == 2


def test_an_empty_span_holds_the_zero_form_alone():
    empty = FormSpan((), coords=tuple(range(9)))
    assert (len(empty), empty.dim, empty.basis) == (0, 9, ())
    assert empty.coordinates_of(segre.QuadraticForm(Matrix.zero(9, 9))) == ()
    assert empty.coordinates_of(i2_segre().basis[0]) is None
    assert not empty.contains(i2_segre().basis[0])


def test_a_solve_that_kills_every_form_keeps_the_ambient_shape():
    span = geometry.veronese_invariant_forms(geometry.SL3_BASIS.values())
    assert (len(span), span.coords, span.coefficients.cols, span.basis) == (0, tuple(range(6)), 21, ())


def test_mu_two_moves_the_first_generator_to_a_real_frame():
    q = i2_segre().basis[0]  # vanishing difference on the first pair
    xq = mu_transform(2, q)
    expected = form_from_pairs(
        [((0, 0), Fraction(1, 4)), ((1, 1), -1), ((2, 2), -1)], 9
    )
    assert xq.matrix == expected.matrix
    assert xq.is_real


def test_mu_two_sum_is_the_sphere_equation():
    total = Matrix.zero(9, 9)
    for q in i2_segre().basis[:4]:
        total = total + mu_transform(2, q).matrix
    expected = form_from_pairs(
        [((0, 0), 1)] + [((k, k), -1) for k in range(1, 9)], 9
    )
    assert total == expected.matrix


def test_mu_zero_is_the_identity():
    q = i2_segre().basis[0]
    assert mu_transform(0, q).matrix == q.matrix


def test_mu_matrices_are_invertible():
    for i in range(4):
        assert mu_matrix(i).det()


def test_mu_transform_flags_incompatible_forms_without_rejecting():
    # a form that is not defined over the sigma_2 reals keeps an imaginary part
    q = i2_segre().basis[16]  # mixed product difference
    out = mu_transform(2, q)
    assert not out.is_real


def test_rep_identity():
    assert rep_S(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(9)


def test_rep_scaling_factor():
    alpha = gauss(2)
    a = rep_S(Matrix([[alpha, 0], [0, 1 / alpha]]), Matrix.identity(2))
    diag = [a[k, k] for k in range(9)]
    assert diag == [gauss(x) for x in [1, 4, Fraction(1, 4), 1, 1, 4, Fraction(1, 4), 4, Fraction(1, 4)]]
    for i in range(9):
        for j in range(9):
            if i != j:
                assert not a[i, j]


def test_rep_rejects_singular_factors():
    with pytest.raises(ValueError):
        rep_S(Matrix([[1, 1], [1, 1]]), Matrix.identity(2))


# ---------------------------------------------------------------------------
# the Gaussian-rational assembly that the Kronecker product replaced, kept as
# the reference


def reference_sym2(phi):
    (a, b), (c, d) = phi.entries()
    return (
        (a * a, 2 * a * b, b * b),
        (a * c, a * d + b * c, b * d),
        (c * c, 2 * c * d, d * d),
    )


def reference_rep_S(phi1, phi2):
    for phi in (phi1, phi2):
        if phi.rows != 2 or phi.cols != 2:
            raise ValueError("factors must be 2x2")
        if not phi.det():
            raise ValueError("singular factor")
    s1, s2 = reference_sym2(phi1), reference_sym2(phi2)
    return Matrix([s1[f][h] * s2[g][k] for h, k in segre.Y_FACTORS] for f, g in segre.Y_FACTORS)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entries = st.one_of(
    st.builds(GaussianRational, _small),  # real
    st.builds(GaussianRational, _small, _small),
)


@st.composite
def _two_by_two(draw):
    rows = [[draw(_entries), draw(_entries)], [draw(_entries), draw(_entries)]]
    if draw(st.booleans()):  # make it singular: row 1 a multiple of row 0
        f = draw(_entries)
        rows[1] = [f * x for x in rows[0]]
    return Matrix(rows)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(_two_by_two(), _two_by_two())
@settings(max_examples=80, deadline=None)
def test_rep_matches_the_gaussian_rational_reference(phi1, phi2):
    assert _outcome(rep_S, phi1, phi2) == _outcome(reference_rep_S, phi1, phi2)


def test_rep_reference_covers_singular_factors():
    singular = Matrix([[1, "i"], ["i", -1]])
    assert not singular.det()
    for pair in ((singular, Matrix.identity(2)), (Matrix.identity(2), singular)):
        assert _outcome(rep_S, *pair) == "ValueError: singular factor"
        assert _outcome(reference_rep_S, *pair) == "ValueError: singular factor"


@st.composite
def _sym2_inputs(draw):
    phi = draw(_two_by_two())
    if draw(st.booleans()):  # a zero row, as over a zero den-1 row
        rows = [list(row) for row in phi.entries()]
        rows[draw(st.integers(0, 1))] = [GaussianRational(), GaussianRational()]
        phi = Matrix(rows)
    return phi


@given(_sym2_inputs())
@settings(max_examples=150, deadline=None)
def test_sym2_is_the_folded_kronecker_square(phi):
    assert segre.sym2(phi) == kron_sym2(phi)


def test_sym2_of_zero_identity_and_a_non_square_factor():
    for phi in (Matrix.zero(2, 2), Matrix.identity(2), Matrix([["i", 0], [0, "-i"]])):
        assert segre.sym2(phi) == kron_sym2(phi)
    with pytest.raises(ValueError):
        segre.sym2(Matrix.identity(3))


@st.composite
def _span_queries(draw):
    """A span of independent rows, rarely in echelon form, and a form in it, near it or zero."""
    def rows_of(k, m):
        return [draw(st.lists(_entries, min_size=m, max_size=m)) for _ in range(k)]

    if draw(st.booleans()):  # combinations of the I2 forms
        n, k = 9, draw(st.integers(0, 4))
        coeffs = i2_segre().coefficients
        rows = Matrix(rows_of(k, coeffs.rows)) * coeffs if k else Matrix.zero(0, coeffs.cols)
    else:
        n = draw(st.integers(2, 4))
        m = n * (n + 1) // 2
        k = draw(st.integers(0, m))
        rows = Matrix(rows_of(k, m)) if k else Matrix.zero(0, m)
    assume(rows.rank() == k)
    span = FormSpan.from_rows(rows, coords=range(n))
    kind = draw(st.sampled_from(("member", "near", "zero", "any")))
    if kind == "any":
        u = Matrix(rows_of(1, rows.cols))
    elif kind == "zero" or not k:
        u = Matrix.zero(1, rows.cols)
    else:
        u = Matrix(rows_of(1, k)) * rows
        if kind == "near":  # one entry moved off the span, as a rule
            unit = [0] * rows.cols
            unit[draw(st.integers(0, rows.cols - 1))] = 1
            u = u + Matrix([unit])
    return span, QuadraticForm(Matrix.symmetric(u))


@given(_span_queries())
@settings(max_examples=60, deadline=None)
def test_span_coordinates_match_the_whole_system_solve(case):
    span, q = case
    want = solve_coordinates_of(span, q)
    assert span.coordinates_of(q) == want
    assert span.contains(q) == (want is not None)


def test_span_queries_on_i2_and_its_sigma_images():
    i2 = i2_segre()
    for i in range(4):
        for q in i2.basis:
            moved = apply_sigma(i, q)
            assert i2.coordinates_of(moved) == solve_coordinates_of(i2, moved)
    outside = QuadraticForm(Matrix.identity(9))
    assert solve_coordinates_of(i2, outside) is None
    assert i2.coordinates_of(outside) is None and not i2.contains(outside)
    assert i2._frame is i2._frame  # made once


def test_a_form_of_the_wrong_size_is_rejected():
    with pytest.raises(ValueError):
        i2_segre().contains(QuadraticForm(Matrix.identity(3)))
    with pytest.raises(ValueError):
        i2_segre().coordinates_of(QuadraticForm(Matrix.identity(10)))


@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=9),
    _entries.filter(bool),
    _entries.filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_monomial_eval_is_the_power_product_of_each_exponent(exponents, s, u):
    param = MonomialParam(tuple(exponents))
    assert param.eval(s, u) == tuple(s**a * u**b for a, b in exponents)


def test_sym2_is_the_action_on_the_quadratic_monomials():
    phi = Matrix([["1+i", 2], [Fraction(1, 3), "-i"]])
    assert segre.sym2(phi) == Matrix(reference_sym2(phi))


def _random_sl2(rng):
    def f():
        return Fraction(rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 3))

    return (
        Matrix([[1, f()], [0, 1]])
        * Matrix([[1, 0], [f(), 1]])
        * Matrix([[1, f()], [0, 1]])
    )


def test_rep_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        p1, p2, q1, q2 = (_random_sl2(rng) for _ in range(4))
        assert rep_S(p1 * q1, p2 * q2) == rep_S(p1, p2) * rep_S(q1, q2)


def test_rep_matches_the_lift_pointwise():
    rng = random.Random(9)
    for _ in range(10):
        p1, p2 = _random_sl2(rng), _random_sl2(rng)
        m = rep_S(p1, p2)
        s, t = gauss(rng.randint(1, 7)), gauss(rng.randint(1, 7))
        u, w = gauss(rng.randint(1, 7)), gauss(rng.randint(1, 7))
        lifted = eval_lift(SEGRE_PARAM, s, t, u, w)
        moved = eval_lift(
            SEGRE_PARAM,
            p1[0, 0] * s + p1[0, 1] * t,
            p1[1, 0] * s + p1[1, 1] * t,
            p2[0, 0] * u + p2[0, 1] * w,
            p2[1, 0] * u + p2[1, 1] * w,
        )
        assert m * Matrix([lifted]).transpose() == Matrix([moved]).transpose()


def test_rep_preserves_the_ideal_span():
    span = i2_segre()
    rng = random.Random(3)
    for _ in range(5):
        m = rep_S(_random_sl2(rng), _random_sl2(rng))
        for q in span.basis[:7]:
            moved = segre.QuadraticForm(m.transpose() * q.matrix * m)
            assert span.contains(moved)


def test_toric_projection_dp6():
    span = toric_projection({5, 6})
    param = _projection_param(span)
    assert len(param) == 7
    assert param.coords == (0, 1, 2, 3, 4, 7, 8)
    assert len(span) == 9
    for a in range(2, 12):
        for b in (2, 3):
            pt = param.eval(Fraction(a), Fraction(b))
            assert not any(evaluate(q, pt) for q in span.basis)


def test_toric_projection_spindle_and_horn_spans():
    spindle = toric_projection({5, 6, 7, 8})
    assert spindle.coords == (0, 1, 2, 3, 4)
    assert len(spindle) == 2
    expected = FormSpan(
        (
            form_from_pairs([((0, 0), 1), ((1, 2), -1)], 5),
            form_from_pairs([((0, 0), 1), ((3, 4), -1)], 5),
        ),
    )
    assert spindle.equals(expected)

    horn = toric_projection({1, 2, 5, 8})
    assert horn.coords == (0, 3, 4, 6, 7)
    assert len(horn) == 2
    expected_h = FormSpan(
        (
            form_from_pairs([((0, 0), 1), ((1, 2), -1)], 5),
            form_from_pairs([((2, 2), 1), ((3, 4), -1)], 5),
        ),
    )
    assert horn.equals(expected_h)


def test_toric_projection_rejects_degenerate_remnant():
    with pytest.raises(ValueError):
        toric_projection({3, 4, 5, 6, 7, 8})


def test_mu_transform_of_projected_span_is_exact():
    span = toric_projection({5, 6, 7, 8})
    q = span.basis[0]
    xq = mu_transform(1, q, span.coords)
    expected = form_from_pairs([((0, 0), 1), ((1, 1), -1), ((2, 2), -1)], 5)
    assert xq.matrix == expected.matrix
