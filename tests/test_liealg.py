"""Brackets, real structures, the tangent action, and invariant forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial.exact import GaussianRational, I, Matrix, ZERO, gauss
from celestial import liealg
from celestial import geometry
from celestial.geometry import VERONESE_MONOMIALS
from celestial.liealg import (
    E,
    FULL_BASIS,
    Q1,
    Q2,
    S1,
    S2,
    T1,
    T2,
    LieElement,
    bracket,
    d_rep,
    invariant_forms,
    lie_sigma,
    real_basis,
    solve_invariant,
    span_stabilizer,
)
from celestial.segre import (
    Y_FACTORS,
    FormSpan,
    QuadraticForm,
    apply_sigma,
    form_from_pairs,
    i2_segre,
    monomial_rep_derivative,
    rep_S,
)
from oracles import (
    ROTATION_GENERATORS,
    Subalgebra,
    column_kernel,
    column_vector,
    is_subalgebra,
    per_form_solve_invariant,
    per_form_span_stabilizer,
    subalgebra_catalog,
)


def test_bracket_structure_constants():
    assert bracket(T1, Q1) == S1
    assert bracket(T1, S1) == T1.scale(-2)
    assert bracket(Q1, S1) == Q1.scale(2)
    assert bracket(T1, T2).is_zero


def test_lie_elements_must_be_traceless():
    with pytest.raises(ValueError):
        LieElement(Matrix([[1, 0], [0, 0]]), Matrix.zero(2, 2))


def test_sigma_rules():
    assert lie_sigma(0, T1) == T1
    assert lie_sigma(3, T1) == T2
    is1 = I * S1
    assert lie_sigma(2, is1) == is1
    for i in range(4):
        for x in FULL_BASIS:
            assert lie_sigma(i, lie_sigma(i, x)) == x


def _swap_conj_by_entries(m):
    """[[a, b], [c, d]] -> [[conj d, conj c], [conj b, conj a]], entry by entry."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    return Matrix([[d.conjugate(), c.conjugate()], [b.conjugate(), a.conjugate()]])


def test_swap_conj_is_the_entrywise_swap():
    samples = [x.left for x in FULL_BASIS] + [x.right for x in FULL_BASIS]
    samples += [(I * S1).left, Matrix([[gauss("1+2i"), gauss("-1/3")], [I, GaussianRational(Fraction(5), Fraction(-1, 7))]])]
    for m in samples:
        assert liealg._swap_conj(m) == _swap_conj_by_entries(m)


def test_rotation_generators_are_fixed_by_their_structures():
    for idx, pair in ROTATION_GENERATORS.items():
        for gen in pair:
            assert lie_sigma(idx, gen) == gen


def test_d_rep_of_zero():
    assert d_rep(E) == Matrix.zero(9, 9)


def test_d_rep_diagonal_example():
    d = d_rep(I * S1)
    two_i = GaussianRational(Fraction(0), Fraction(2))
    expected = [gauss(0), two_i, -two_i, gauss(0), gauss(0), two_i, -two_i, two_i, -two_i]
    assert [d[k, k] for k in range(9)] == expected
    assert all(not d[i, j] for i in range(9) for j in range(9) if i != j)


def test_d_rep_linearity():
    lhs = d_rep(T1.scale(2) + S2.scale(3))
    assert lhs == d_rep(T1).scale(2) + d_rep(S2).scale(3)


def _finite_difference_tangent(exp_factory):
    """Exact derivative of a polynomial 1-parameter subgroup of P^8 maps."""
    r1 = exp_factory(Fraction(1))
    r2 = exp_factory(Fraction(2))
    ident = Matrix.identity(9)
    # for R(h) = 1 + hD + h^2 E:  4R(1) - R(2) - 3 = 2D
    return (r1.scale(4) - r2 - ident.scale(3)).scale(Fraction(1, 2))


def test_d_rep_matches_exact_unipotent_derivatives():
    def unipotent(element):
        def factory(h):
            left = Matrix.identity(2) + element.left.scale(h)
            right = Matrix.identity(2) + element.right.scale(h)
            return rep_S(left, right)

        return factory

    for element in (T1, Q1, T2, Q2):
        assert d_rep(element) == _finite_difference_tangent(unipotent(element))
    # the semisimple generator follows from the bracket relation s = [t, q]
    dt, dq = d_rep(T1), d_rep(Q1)
    assert d_rep(S1) == dt * dq - dq * dt


def _random_element(rng):
    out = E
    for base in FULL_BASIS:
        if rng.random() < 0.7:
            c = GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2)),
            )
            out = out + c * base
    return out


def test_d_rep_is_a_lie_homomorphism():
    rng = random.Random(17)
    for _ in range(20):
        x, y = _random_element(rng), _random_element(rng)
        dx, dy = d_rep(x), d_rep(y)
        assert d_rep(bracket(x, y)) == dx * dy - dy * dx


def test_subalgebra_checks():
    assert is_subalgebra([T1, S1])
    assert is_subalgebra([T1 + T2, Q1 + Q2, S1 + S2])
    assert is_subalgebra([T1, Q2])
    assert not is_subalgebra([T1 + Q2, S1])
    with pytest.raises(ValueError):
        Subalgebra((T1 + Q2, S1))


def test_catalog_entries_are_closed():
    catalog = subalgebra_catalog()
    assert len(catalog) == 19 + 3 * 3  # three alpha values for three families
    for name, algebra in catalog:
        assert is_subalgebra(algebra.basis), name


def test_rotation_invariant_forms():
    span = invariant_forms(liealg.NAMED_ALGEBRAS["so2xso2"], i2_segre())
    expected = FormSpan(
        tuple(
            form_from_pairs([((0, 0), 1), ((k, k + 1), -1)], 9)
            for k in (1, 3, 5, 7)
        ),
    )
    assert span.equals(expected)


def test_horn_invariant_forms():
    span = invariant_forms(liealg.NAMED_ALGEBRAS["so2xse1"], i2_segre())
    expected = FormSpan(
        (
            form_from_pairs([((0, 0), 1), ((3, 4), -1)], 9),
            form_from_pairs([((4, 4), 1), ((6, 7), -1)], 9),
            form_from_pairs([((1, 6), 1), ((2, 7), -1)], 9),
            form_from_pairs([((1, 2), 2), ((5, 6), -1), ((7, 8), -1)], 9),
        ),
    )
    assert span.equals(expected)


def test_full_algebra_leaves_one_form():
    span = invariant_forms(FULL_BASIS, i2_segre())
    assert len(span) == 1
    expected = form_from_pairs(
        [((0, 0), 2), ((1, 2), -2), ((3, 4), -2), ((5, 6), 1), ((7, 8), 1)], 9
    )
    assert span.contains(expected)


def test_invariant_forms_do_not_depend_on_the_basis_choice():
    g = liealg.NAMED_ALGEBRAS["so2xse1"]
    base = invariant_forms(g, i2_segre())
    twisted = [g[0] + g[1].scale(3), g[1].scale(gauss("1+2i"))]
    assert invariant_forms(twisted, i2_segre()).equals(base)


def test_invariant_forms_survive_the_exact_nilpotent_exponential():
    ambient = i2_segre()
    d = d_rep(T1)
    d2 = d * d
    assert d2 * d == Matrix.zero(9, 9)
    span = invariant_forms([T1], ambient)
    assert len(span) > 0
    for alpha in (Fraction(1), Fraction(-2), Fraction(5, 3)):
        e = Matrix.identity(9) + d.scale(alpha) + d2.scale(alpha * alpha / 2)
        for q in span.basis:
            assert e.transpose() * q.matrix * e == q.matrix


def test_real_basis_of_the_rotation_invariants():
    span = invariant_forms(liealg.NAMED_ALGEBRAS["so2xso2"], i2_segre())
    fixed = real_basis(span, 2)
    assert len(fixed) == len(span)
    for q in fixed.basis:
        assert apply_sigma(2, q) == q
        assert span.contains(q)


def test_real_basis_rescales_imaginary_generators():
    base = form_from_pairs([((0, 0), 1), ((1, 2), -1)], 9)
    twisted = FormSpan((base.scale(I),))
    fixed = real_basis(twisted, 0)
    assert len(fixed) == 1
    assert fixed.contains(base)
    assert apply_sigma(0, fixed.basis[0]) == fixed.basis[0]


def test_real_basis_of_the_horn_invariants():
    span = invariant_forms(liealg.NAMED_ALGEBRAS["so2xse1"], i2_segre())
    fixed = real_basis(span, 1)
    assert len(fixed) == 4
    for q in fixed.basis:
        assert apply_sigma(1, q) == q


def test_real_basis_rejects_unclosed_spans():
    lone = FormSpan((form_from_pairs([((1, 1), 1), ((5, 7), -1)], 9),))
    with pytest.raises(ValueError):
        real_basis(lone, 3)


# ---------------------------------------------------------------------------
# the solvers the coefficient-space one replaced, kept as references: the
# two-product solver below and the per-form solver of tests/oracles.py


def reference_solve_invariant(tangents, ambient):
    if not ambient.basis:
        return ambient
    rows = []
    for d in tangents:
        dt = d.transpose()
        vecs = [(dt * q.matrix + q.matrix * d).upper().entries()[0] for q in ambient.basis]
        rows.extend(row for row in zip(*vecs) if any(row))
    if not rows:
        return FormSpan.row_space(ambient.coefficients, coords=ambient.coords)
    forms = tuple(ambient.combination(column_vector(v)) for v in column_kernel(Matrix(rows)))
    if not forms:
        return FormSpan((), coords=ambient.coords)
    span = FormSpan(forms, coords=ambient.coords)
    return FormSpan.row_space(span.coefficients, coords=ambient.coords)


def _same_span_as_the_references(tangents, ambient):
    new = solve_invariant(tangents, ambient)
    for old in (
        reference_solve_invariant(tangents, ambient),
        per_form_solve_invariant(tangents, ambient),
    ):
        assert new.coords == old.coords
        assert [q.matrix for q in new.basis] == [q.matrix for q in old.basis]
        assert [q.matrix.entries() for q in new.basis] == [q.matrix.entries() for q in old.basis]


def _same_reduced_span(elements):
    _same_span_as_the_references([d_rep(x) for x in elements], i2_segre())


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_entries = st.one_of(
    st.builds(GaussianRational, _small),  # real
    st.builds(GaussianRational, _small, _small),
)


@st.composite
def _sl2(draw):
    a, b, c = draw(_entries), draw(_entries), draw(_entries)
    return Matrix([[a, b], [c, -a]])


_elements = st.builds(LieElement, _sl2(), _sl2())


@given(st.lists(_elements, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_solver_matches_the_two_product_reference(elements):
    _same_reduced_span(elements)


@pytest.mark.parametrize(
    "elements",
    [algebra.basis for _, algebra in subalgebra_catalog()]
    + list(liealg.NAMED_ALGEBRAS.values()),
    ids=[name for name, _ in subalgebra_catalog()] + list(liealg.NAMED_ALGEBRAS),
)
def test_solver_matches_the_reference_on_the_catalog(elements):
    _same_reduced_span(elements)


@pytest.mark.parametrize(
    "algebra", [geometry.so3_basis(), list(geometry.SL3_BASIS.values())], ids=["so3", "sl3"]
)
def test_solver_matches_the_references_on_the_veronese_surface(algebra):
    _, span = geometry.veronese_data()
    tangents = [monomial_rep_derivative(g, VERONESE_MONOMIALS) for g in algebra]
    _same_span_as_the_references(tangents, span)
    _same_span_as_the_references(tangents[:1], span)


def test_solver_keeps_the_span_without_tangents_and_the_empty_span():
    span = FormSpan(i2_segre().basis[3:7])
    _same_span_as_the_references([], span)
    empty = FormSpan((), coords=tuple(range(9)))
    assert solve_invariant([d_rep(T1)], empty) is empty


# ---------------------------------------------------------------------------
# the Gaussian-rational assembly of the tangent action that the Kronecker
# product replaced, kept as the reference

_SYM2_MONOMIALS = ((2, 0), (1, 1), (0, 2))


def reference_monomial_derivative(g, monomials):
    """The derivative of the monomial action of exp(t*g), entry by entry."""
    index = {m: i for i, m in enumerate(monomials)}
    out = [[ZERO] * len(monomials) for _ in monomials]
    for r, exps in enumerate(monomials):
        for k in range(g.rows):
            for l in range(g.rows):
                if exps[k] and g[k, l]:
                    m = list(exps)
                    m[k] -= 1
                    m[l] += 1
                    c = index[tuple(m)]
                    out[r][c] = out[r][c] + gauss(exps[k]) * g[k, l]
    return Matrix(out)


def reference_d_rep(m):
    dl = reference_monomial_derivative(m.left, _SYM2_MONOMIALS).entries()
    dr = reference_monomial_derivative(m.right, _SYM2_MONOMIALS).entries()
    left = Matrix([dl[f][h] if g == k else ZERO for h, k in Y_FACTORS] for f, g in Y_FACTORS)
    right = Matrix([dr[g][k] if f == h else ZERO for h, k in Y_FACTORS] for f, g in Y_FACTORS)
    return left + right


@given(_elements)
@settings(max_examples=80, deadline=None)
def test_d_rep_matches_the_gaussian_rational_reference(x):
    assert d_rep(x) == reference_d_rep(x)


@given(_sl2())
@settings(max_examples=50, deadline=None)
def test_monomial_derivative_matches_the_reference_in_two_variables(g):
    assert monomial_rep_derivative(g, _SYM2_MONOMIALS) == reference_monomial_derivative(
        g, _SYM2_MONOMIALS
    )


@given(st.lists(_entries, min_size=9, max_size=9))
@settings(max_examples=50, deadline=None)
def test_monomial_derivative_matches_the_reference_on_the_veronese_monomials(entries):
    g = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    assert monomial_rep_derivative(g, VERONESE_MONOMIALS) == reference_monomial_derivative(
        g, VERONESE_MONOMIALS
    )


@pytest.mark.parametrize(
    "monomials",
    [((2, 0), (1, 1)), ((2, 0), (1, 1), (0, 2), (2, 0)), ((3, 0), (2, 1), (1, 2), (0, 3))],
    ids=["missing", "repeated", "cubic"],
)
def test_monomial_derivative_needs_every_degree2_monomial(monomials):
    with pytest.raises(ValueError):
        monomial_rep_derivative(Matrix([[1, 2], [3, -1]]), monomials)


def test_d_rep_matches_the_reference_on_the_catalog():
    for _, algebra in subalgebra_catalog():
        for x in algebra.basis:
            assert d_rep(x) == reference_d_rep(x)


# ---------------------------------------------------------------------------
# the infinitesimal stabilizer of a span


def test_the_family_span_is_stabilized_by_the_torus_alone():
    stabilizer = span_stabilizer(FormSpan(i2_segre().basis[:4]))
    assert len(stabilizer) == 2
    assert all(liealg.span_contains(stabilizer, x) for x in (S1, S2))


def test_the_whole_ideal_is_stabilized_by_everything():
    stabilizer = span_stabilizer(i2_segre())
    assert len(stabilizer) == 6


@pytest.mark.parametrize("name", ["so2xso2", "so2xse1", "sl2xsl2"])
def test_stabilizer_matches_the_per_form_stabilizer(name):
    span = invariant_forms(liealg.NAMED_ALGEBRAS[name], i2_segre())
    new, old = span_stabilizer(span), per_form_span_stabilizer(span)
    assert [x.vec() for x in new] == [x.vec() for x in old]


def test_a_span_off_the_torus_weights_has_a_smaller_stabilizer():
    basis = i2_segre().basis
    mixed = QuadraticForm(basis[3].matrix + basis[4].matrix)
    stabilizer = span_stabilizer(FormSpan(basis[:3] + (mixed,)))
    assert len(stabilizer) == 1
    assert not liealg.span_contains(stabilizer, S1)
