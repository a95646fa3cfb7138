"""Brackets, real structures, the tangent action, and invariant forms."""

import ast
import functools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial.exact import GaussianRational, I, Matrix, ZERO, gauss, symmetric_images
from celestial import exact, forms, liealg
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
    action_table,
    bracket,
    d_rep,
    invariant_forms,
    isotypic_pieces,
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
    checked_rows,
    column_kernel,
    coefficient_row_solve_invariant,
    column_vector,
    coordinates,
    entrywise_forms,
    entrywise_traceless,
    generated_dimension,
    is_subalgebra,
    lifted_solve_invariant,
    loop_real_basis,
    matrix_step_solve_invariant,
    mod_p_dimension_bound,
    per_form_solve_invariant,
    per_form_span_stabilizer,
    product_rule_d_rep,
    simplest_first,
    single_table_solve_invariant,
    span_contains,
    subalgebra_catalog,
)

ROOT = Path(__file__).resolve().parents[1]


def test_bracket_structure_constants():
    assert bracket(T1, Q1) == S1
    assert bracket(T1, S1) == T1.scale(-2)
    assert bracket(Q1, S1) == Q1.scale(2)
    assert bracket(T1, T2) == E


def test_lie_elements_must_be_traceless():
    with pytest.raises(ValueError):
        LieElement(Matrix([[1, 0], [0, 0]]), Matrix.zero(2, 2))
    with pytest.raises(ValueError, match="traceless"):
        LieElement(Matrix.zero(2, 2), Matrix([["1/2+i", 3], [0, "-1/3-i"]]))
    x = LieElement(Matrix([["1/2+i", 3], [2, "-1/2-i"]]), Matrix([[0, 1], ["i", 0]]))
    assert coordinates(x) == (gauss(3), gauss(2), gauss("1/2+i"), gauss(1), I, gauss(0))
    assert liealg._coordinate_rows([x]) == Matrix([coordinates(x)])


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


@pytest.mark.parametrize("name", ["i2", *liealg.NAMED_ALGEBRAS])
def test_real_basis_matches_the_combinations_made_one_at_a_time(name):
    i2 = i2_segre()
    span = i2 if name == "i2" else invariant_forms(liealg.NAMED_ALGEBRAS[name], i2)
    closed = 0
    for i in range(4):
        try:
            expected = loop_real_basis(span, i)
        except ValueError:
            with pytest.raises(ValueError, match="not closed"):
                real_basis(span, i)
            continue
        fixed = real_basis(span, i)
        closed += 1
        assert fixed.basis == expected and fixed.coords == span.coords
        assert fixed.coefficients == checked_rows(expected, 9)
    # so2xse1 is not closed under sigma_2 and sigma_3; every other span is under all four
    assert closed == (2 if name == "so2xse1" else 4)


def test_real_basis_rejects_unclosed_spans():
    lone = FormSpan((form_from_pairs([((1, 1), 1), ((5, 7), -1)], 9),))
    with pytest.raises(ValueError):
        real_basis(lone, 3)


# ---------------------------------------------------------------------------
# the solvers the action-table one replaced, kept as references: the
# two-product solver below, and the coefficient-row and per-form solvers of
# tests/oracles.py


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


def _same_span_as_the_references(new, tangents, ambient):
    for old in (
        reference_solve_invariant(tangents, ambient),
        coefficient_row_solve_invariant(tangents, ambient),
        per_form_solve_invariant(tangents, ambient),
    ):
        assert new.coords == old.coords
        assert [q.matrix for q in new.basis] == [q.matrix for q in old.basis]
        assert [q.matrix.entries() for q in new.basis] == [q.matrix.entries() for q in old.basis]


def _same_reduced_span(elements, ambient=None):
    ambient = i2_segre() if ambient is None else ambient
    new = invariant_forms(elements, ambient)
    _same_span_as_the_references(new, [d_rep(x) for x in elements], ambient)


_small = st.sampled_from(simplest_first(3, 3))
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
    span = geometry.veronese_data()
    tangents = [monomial_rep_derivative(g, VERONESE_MONOMIALS) for g in algebra]
    _same_span_as_the_references(geometry.veronese_invariant_forms(algebra), tangents, span)
    _same_span_as_the_references(geometry.veronese_invariant_forms(algebra[:1]), tangents[:1], span)


def test_solver_keeps_the_span_without_tangents_and_the_empty_span():
    span = FormSpan(i2_segre().basis[3:7])
    _same_reduced_span([], span)
    empty = FormSpan((), coords=tuple(range(9)))
    for elements in ([], [T1], FULL_BASIS):
        out = invariant_forms(elements, empty)
        assert (out.basis, out.coords) == ((), empty.coords)


@pytest.mark.parametrize(
    "elements", [[], [E], [E, T1], [T1, E, E]], ids=["empty", "zero", "zero,t1", "t1,zero,zero"]
)
def test_solver_matches_the_references_on_zero_and_empty_algebras(elements):
    _same_reduced_span(elements)


def test_the_veronese_solver_keeps_everything_for_zero_and_empty_algebras():
    span = geometry.veronese_data()
    for algebra in ([], [Matrix.zero(3, 3)]):
        tangents = [monomial_rep_derivative(g, VERONESE_MONOMIALS) for g in algebra]
        out = geometry.veronese_invariant_forms(algebra)
        _same_span_as_the_references(out, tangents, span)
        assert len(out) == len(span)


def _check_the_split(table, tangents):
    """Each block of the table is [Phi_j | E_j] with upper(D_j^T A + A D_j) = Phi_j R + E_j."""
    red = table.reduced
    k, m = red.rows, red.cols
    pivots = red.rref()[1]
    assert table.blocks.rows == len(tangents)
    for j, d in enumerate(tangents):
        block = table.blocks.row(j).reshape(k + len(table.residual), k).transpose().entries()
        residual = [[ZERO] * m for _ in range(k)]
        for i in range(k):
            for c, x in zip(table.residual, block[i][k:]):
                residual[i][c] = x
        assert all(not row[p] for row in residual for p in pivots)
        phi = Matrix([row[:k] for row in block])
        assert phi * red + Matrix(residual) == symmetric_images(red, d)


def test_sl2xsl2_maps_the_ideal_into_itself():
    tangents = [d_rep(x) for x in FULL_BASIS]
    table = action_table(tangents, i2_segre())
    assert table.residual == ()
    assert (table.blocks.rows, table.blocks.cols) == (6, 20 * 20)
    _check_the_split(table, tangents)
    assert table.reduced.rref()[0] == i2_segre().coefficients.rref()[0]


@pytest.mark.parametrize("name", list(liealg.NAMED_ALGEBRAS))
def test_the_family_span_leaves_a_residual_and_matches_the_references(name):
    family = FormSpan(i2_segre().basis[:4])
    tangents = [d_rep(x) for x in FULL_BASIS]
    table = action_table(tangents, family)
    assert table.residual
    _check_the_split(table, tangents)
    _same_reduced_span(liealg.NAMED_ALGEBRAS[name], family)


# ---------------------------------------------------------------------------
# the isotypic pieces of I2 and the solver over them


def _systems(piece):
    """The d x d system of each basis tangent on a piece."""
    d = piece.reduced.rows
    return [piece.blocks.row(j).reshape(d, d) for j in range(len(FULL_BASIS))]


def _casimir_eigenvalues(piece):
    """(C1, C2) on the piece, each of which must be a multiple of the identity."""
    t1, q1, s1, t2, q2, s2 = _systems(piece)
    d = piece.reduced.rows
    out = []
    for t, q, s in ((t1, q1, s1), (t2, q2, s2)):
        c = s * s + (t * q + q * t).scale(2)
        value = c[0, 0]
        assert c == Matrix.identity(d).scale(value)
        out.append(int(value.re))
    return tuple(out)


def test_i2_splits_into_the_four_isotypic_pieces():
    table = liealg._full_action_table(i2_segre())
    pieces = isotypic_pieces(table)
    found = sorted((_casimir_eigenvalues(p), p.reduced.rows) for p in pieces)
    assert found == [((0, 0), 1), ((0, 24), 5), ((8, 8), 9), ((24, 0), 5)]
    tangents = [d_rep(x) for x in FULL_BASIS]
    for piece in pieces:
        # the images of the piece's forms under the tangents themselves are
        # its systems times its forms: nothing leaves the piece
        assert (piece.residual, piece.coords) == ((), table.coords)
        _check_the_split(piece, tangents)
    whole = Matrix.stack(p.reduced for p in pieces)
    assert whole.rref()[0] == i2_segre().coefficients.rref()[0]


def test_a_span_the_basis_does_not_keep_is_one_piece():
    table = liealg._full_action_table(forms.family_basis())
    assert table.residual
    assert isotypic_pieces(table) == (table,)


def test_a_table_whose_casimir_eigenspaces_fall_short_raises():
    table = liealg._full_action_table(i2_segre())
    k = table.reduced.rows
    rows = [table.blocks.row(j) for j in range(len(FULL_BASIS))]
    rows[0] = Matrix.zero(1, k * k)  # without T1 the first Casimir is no longer central
    broken = liealg.ActionTable(table.reduced, (), Matrix.stack(rows), table.coords)
    with pytest.raises(ArithmeticError, match="do not add up"):
        isotypic_pieces(broken)


def _seeded_algebra(rng):
    """1 to 3 elements with coordinates over Q(i), half of them zero, real or not."""
    complex_entries = rng.random() < 0.5

    def entry():
        if rng.random() < 0.5:
            return ZERO
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if complex_entries else Fraction(0)
        return GaussianRational(re, im)

    out = []
    for _ in range(rng.randint(1, 3)):
        coords = [entry() for _ in FULL_BASIS]
        out.append(sum((c * b for c, b in zip(coords, FULL_BASIS) if c), E))
    return out


def _same_as_the_single_table(elements, ambient):
    new = invariant_forms(elements, ambient)
    old = single_table_solve_invariant(
        [coordinates(x) for x in elements], liealg._full_action_table(ambient)
    )
    assert new.coords == old.coords
    assert new.coefficients == old.coefficients
    _same_as_the_span_of_its_forms(new)
    return new


def _same_as_the_span_of_its_forms(span):
    """The span's forms are its rows filled entry by entry, and give back its rows, full rank."""
    assert span.basis == entrywise_forms(span.coefficients, span.dim)
    assert span.coefficients == checked_rows(span.basis, span.dim)
    assert (len(span), span.coefficients.cols) == (len(span.basis), span.dim * (span.dim + 1) // 2)


def test_the_pieces_solve_like_the_single_table_on_seeded_subalgebras():
    rng = random.Random(20190318)
    # I2 and six of its binomials, a span that most elements map partly outside itself
    ambient, sub_span = i2_segre(), FormSpan(i2_segre().basis[3:9])
    sizes, complex_count, sub_sizes = [], 0, []
    for n in range(320):
        elements = _seeded_algebra(rng)
        complex_count += any(not x.left.is_real or not x.right.is_real for x in elements)
        sizes.append(len(_same_as_the_single_table(elements, ambient)))
        if n % 8 == 0:
            sub_sizes.append(len(_same_as_the_single_table(elements, sub_span)))
        if n % 40 == 0:
            _same_reduced_span(elements)
    # real and complex elements; on I2 results from one form (every piece
    # dropped but V0 (x) V0, which every element keeps) to all twenty, and
    # on the sub-span empty results too
    assert 0 < complex_count < 320
    assert min(sizes) == 1 and max(sizes) == 20 and len(set(sizes)) > 4
    assert 0 in sub_sizes and max(sub_sizes) > 0


@pytest.mark.parametrize(
    "elements",
    [[], *liealg.NAMED_ALGEBRAS.values(), [T1], [S1], [S1, T2], [E]],
    ids=["empty", *liealg.NAMED_ALGEBRAS, "t1", "s1", "s1,t2", "zero"],
)
def test_the_pieces_solve_like_the_single_table_on_named_algebras(elements):
    for ambient in (i2_segre(), forms.family_basis(), FormSpan(i2_segre().basis[3:9])):
        _same_as_the_single_table(list(elements), ambient)


_catalog_bases = st.sampled_from([algebra.basis for _, algebra in subalgebra_catalog()])


@given(
    st.randoms(use_true_random=False),
    st.one_of(_catalog_bases, st.lists(_elements, min_size=1, max_size=2)),
)
@settings(max_examples=25, deadline=None)
def test_solver_matches_the_references_on_random_sub_spans(rng, elements):
    # some of I2's binomials, which carry torus weights, and a few random
    # combinations: most elements map such a span partly outside itself
    coeffs = i2_segre().coefficients
    rows = [coeffs.row(i) for i in rng.sample(range(len(i2_segre())), rng.randint(1, 10))]
    mixed = [[rng.randint(-2, 2) for _ in range(coeffs.rows)] for _ in range(rng.randint(0, 2))]
    if mixed:
        rows.append(Matrix(mixed) * coeffs)
    span = FormSpan.row_space(Matrix.stack(rows), coords=tuple(range(9)))
    _same_reduced_span(elements, span)


def test_an_empty_ambient_gets_an_action_table():
    empty = FormSpan((), coords=tuple(range(9)))
    table = action_table([d_rep(x) for x in FULL_BASIS], empty)
    assert (table.reduced.rows, table.reduced.cols, table.residual) == (0, 45, ())
    assert (table.blocks.rows, table.blocks.cols) == (6, 0)
    assert isotypic_pieces(table) == (table,)
    out = solve_invariant(Matrix([coordinates(T1)]), (table,))
    assert (out.basis, out.coords) == ((), empty.coords)


def test_the_empty_span_has_coefficients_and_the_whole_algebra_as_stabilizer():
    empty = FormSpan((), coords=tuple(range(9)))
    assert (empty.coefficients.rows, empty.coefficients.cols) == (0, 45)
    assert span_stabilizer(empty) == list(FULL_BASIS)


def test_lie_coordinates_recover_the_element():
    for x in [*FULL_BASIS, E, T1 + S2.scale(gauss("2-i")), Q1.scale(3) + T2 + Q2.scale(I)]:
        c = coordinates(x)
        assert sum((a * b for a, b in zip(c, FULL_BASIS) if a), E) == x


def _same_lifted_rows(new, old):
    """The same canonical Matrix, down to the lifted form: realness, dens and ints."""
    assert (new.rows, new.cols) == (old.rows, old.cols)
    assert (new.is_real, new._dens, new._ints) == (old.is_real, old._dens, old._ints)


@given(st.lists(st.one_of(_elements, st.just(E), st.sampled_from(FULL_BASIS)), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_coordinate_rows_are_the_rows_of_the_entries(elements):
    # real and Gaussian halves, mixed in one element and across elements
    _same_lifted_rows(liealg._coordinate_rows(elements), Matrix([coordinates(x) for x in elements]))


def test_coordinate_rows_of_mixed_halves_and_of_no_elements():
    real_left = LieElement(Matrix([["1/2", 3], ["2/3", "-1/2"]]), Matrix([[0, "i"], ["1/4", 0]]))
    for elements in ([real_left], [real_left, T1], [T1, S2.scale(Fraction(1, 6))]):
        _same_lifted_rows(liealg._coordinate_rows(elements), Matrix([coordinates(x) for x in elements]))
    empty = liealg._coordinate_rows([])
    assert (empty.rows, empty.cols) == (0, len(FULL_BASIS))


# ---------------------------------------------------------------------------
# the solver on lifted rows against the solver with one Matrix per step


def _same_as_the_matrix_steps(rows, pieces):
    """The lifted solver on coordinate rows gives the per-step solver's canonical span."""
    new = solve_invariant(Matrix(rows) if rows else Matrix.zero(0, pieces[0].blocks.rows), pieces)
    old = matrix_step_solve_invariant(rows, pieces)
    assert new.coords == old.coords
    _same_lifted_rows(new.coefficients, old.coefficients)
    return new


def _acts_as_zero_between(elements, pieces) -> bool:
    """Whether, in some piece, an element with a zero system comes after one with a nonzero one."""
    rows = liealg._coordinate_rows(elements)
    for piece in pieces:
        systems = rows * piece.blocks
        zero = [systems.row(i) == Matrix.zero(1, systems.cols) for i in range(systems.rows)]
        if False in zero and True in zero[zero.index(False):]:
            return True
    return False


def test_the_lifted_solver_matches_the_matrix_steps_on_seeded_i2_algebras():
    rng = random.Random(24)
    pieces = liealg._full_pieces(i2_segre())
    left_only = (T1, Q1, S1, T1.scale(I) + S1)  # zero on the pieces V0 (x) Vb
    counts = Counter()
    for n in range(240):
        kind = ("complex", "real", "zero on a piece", "repeated")[n % 4]
        elements = [] if n % 24 == 0 else _seeded_algebra(rng)[: rng.randint(0, 3)]
        if kind == "real":
            elements = [x for x in elements if x.left.is_real and x.right.is_real] or [S1 + T2.scale(3)]
        elif kind == "zero on a piece":
            elements.insert(rng.randint(0, len(elements)), rng.choice(left_only))
            elements.insert(0, S2 + Q2.scale(I))
        elif kind == "repeated" and elements:
            elements.insert(rng.randint(0, len(elements)), rng.choice(elements))
        counts["repeated"] += len(set(elements)) < len(elements)
        counts["complex"] += any(not x.left.is_real or not x.right.is_real for x in elements)
        counts["real"] += bool(elements) and all(x.left.is_real and x.right.is_real for x in elements)
        counts["empty"] += not elements
        counts["zero between"] += _acts_as_zero_between(elements, pieces)
        out = _same_as_the_matrix_steps([coordinates(x) for x in elements], pieces)
        counts[f"size {len(out)}"] += 1
    assert min(counts["complex"], counts["real"], counts["empty"], counts["zero between"]) > 0
    assert counts["repeated"] > 0
    assert counts["size 1"] and counts["size 20"] and len([k for k in counts if k.startswith("size")]) > 4


def _random_sl3(rng):
    """A traceless 3x3 matrix over Q(i), about a third of its entries zero."""

    def entry():
        if rng.random() < 0.3:
            return ZERO
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.5 else Fraction(0)
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)

    g = [[entry() for _ in range(3)] for _ in range(3)]
    g[2][2] = -g[0][0] - g[1][1]
    return Matrix(g)


def test_the_lifted_solver_matches_the_matrix_steps_on_the_veronese_table():
    table = geometry._veronese_action_table()

    def rows(algebra):
        return [[x for row in g.entries() for x in row] for g in algebra]

    named = [geometry.so3_basis(), list(geometry.SL3_BASIS.values())]
    assert [len(_same_as_the_matrix_steps(rows(a), (table,))) for a in named] == [1, 0]
    rng = random.Random(3)
    sizes = set()
    for _ in range(40):
        algebra = [_random_sl3(rng) for _ in range(rng.randint(0, 3))]
        if algebra and rng.random() < 0.3:
            algebra.append(rng.choice(geometry.so3_basis()))
        sizes.add(len(_same_as_the_matrix_steps(rows(algebra), (table,))))
    assert len(sizes) > 1


def _nonempty_common_kernels(rows, pieces) -> int:
    """The pieces where two or more elements act as nonzero and still kill a common nonzero form."""
    elements, count = Matrix(rows), 0
    for piece in pieces:
        real, _, systems = elements._product(piece.blocks)
        live = [flat for flat in systems if any(flat if real else (x for pair in flat for x in pair))]
        count += len(live) > 1 and bool(exact._common_kernel(systems, piece.reduced.rows, real))
    return count


def test_the_lifted_solver_matches_the_matrix_steps_where_common_kernels_are_not_empty():
    # there the exact cut ends with kernel rows, not with an empty K
    pieces = liealg._full_pieces(i2_segre())
    torus = (
        [S1, S2],
        [S1 + S2.scale(3), S2],
        [S1.scale(I) + S2, S1 + S2],
        [S1.scale(gauss("2-i")), S2.scale(I), S1 + S2],
    )
    real = ([T1 + T2, Q1 + Q2], [T1 + T2, Q1 + Q2, S1 + S2], [S1 + S2, T1 + T2], [T1, S2])
    assert all(x.left.is_real and x.right.is_real for algebra in real for x in algebra)
    for algebra in (*torus, *real):
        rows = [coordinates(x) for x in algebra]
        assert _nonempty_common_kernels(rows, pieces) > 0
        assert len(_same_as_the_matrix_steps(rows, pieces)) > 0


def test_a_generating_pair_and_the_sl3_veronese_solve_take_no_exact_cut(monkeypatch):
    # the closure modulo P proves that the pair generates all of sl2+sl2,
    # and the SL3 Veronese solve ends at a dimension bound of 0
    ambient = i2_segre()
    algebra = [T1 + S2, Q1 + T2.scale(2) + S1]  # generates all of sl2+sl2
    full = liealg.full_invariant_forms()
    _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, full.coefficients)
    assert len(geometry.veronese_invariant_forms(geometry.SL3_BASIS.values())) == 0  # tables built

    def no_exact_cut(*args):
        raise AssertionError("the exact cut ran on a solve the closure or the bound should have decided")

    monkeypatch.setattr(exact, "_null_rows", no_exact_cut)
    _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, full.coefficients)
    assert len(geometry.veronese_invariant_forms(geometry.SL3_BASIS.values())) == 0


# ---------------------------------------------------------------------------
# the solve decided by a dimension bound modulo P that known invariant forms meet


def _same_as_the_exact_path(elements, ambient=None):
    """The solver's span is the exact path's, down to the lifted rows."""
    ambient = i2_segre() if ambient is None else ambient
    new = invariant_forms(elements, ambient)
    old = lifted_solve_invariant(liealg._coordinate_rows(elements), liealg._full_pieces(ambient))
    assert new.coords == old.coords
    _same_lifted_rows(new.coefficients, old.coefficients)
    return new


def _decided_by_the_bound(elements, ambient=None) -> bool:
    """Whether the solve ends with no exact product of the element systems."""
    pieces = liealg._full_pieces(i2_segre() if ambient is None else ambient)
    calls = []
    product = Matrix._product
    Matrix._product = lambda *args: calls.append(args) or product(*args)
    try:
        solve_invariant(liealg._coordinate_rows(elements), pieces, liealg._polarizations)
    finally:
        Matrix._product = product
    return not calls


_MULTIPLES_OF_P = st.sampled_from(
    [GaussianRational(Fraction(m * exact._P, d), Fraction(n * exact._P, d))
     for m, n, d in ((1, 0, 1), (-2, 0, 3), (0, 1, 1), (1, -1, 2), (3, 2, 1))]
)


@st.composite
def _degenerate_halves(draw):
    """A pair of traceless halves: generic, one zero, nilpotent, of equal -det, real, or vanishing mod P."""
    kind = draw(st.sampled_from(("generic", "one half zero", "nilpotent", "equal -det", "real", "mod P")))
    x, y = draw(_sl2()), draw(_sl2())
    zero = Matrix.zero(2, 2)
    if kind == "one half zero":
        x, y = draw(st.sampled_from(((x, zero), (zero, y))))
    elif kind == "nilpotent":
        t, u = draw(_entries), draw(_entries)
        x = Matrix([[t * u, t * t], [-(u * u), -(t * u)]])  # a^2 + bc = 0
        y = draw(st.sampled_from((y, x.transpose(), zero)))
    elif kind == "equal -det":
        # y is x conjugated or negated; x semisimple gives a 3-dimensional V2 (x) V2 kernel
        g = Matrix([[1, draw(_entries)], [0, 1]])
        g_inv = Matrix([[1, -g[0, 1]], [0, 1]])
        y = draw(st.sampled_from((x, -x, x.transpose(), g * x * g_inv)))
    elif kind == "real":
        real = st.builds(GaussianRational, _small)
        a, b, c, d, e, f = (draw(real) for _ in range(6))
        x, y = Matrix([[a, b], [c, -a]]), Matrix([[d, e], [f, -d]])
    elif kind == "mod P":
        # some or all coordinates vanish modulo P, so the bound sees less rank
        a, b, c = (draw(st.one_of(_MULTIPLES_OF_P, _entries)) for _ in range(3))
        x = Matrix([[a, b], [c, -a]])
        y = draw(st.sampled_from((y, y.scale(exact._P), zero)))
    return LieElement(x, y)


@given(st.lists(_degenerate_halves(), max_size=3))
@settings(max_examples=120, deadline=None)
def test_the_bounded_solver_matches_the_exact_path(elements):
    _same_as_the_exact_path(elements)


@pytest.mark.parametrize(
    "elements",
    [algebra.basis for _, algebra in subalgebra_catalog()] + list(liealg.NAMED_ALGEBRAS.values()),
)
def test_the_bounded_solver_matches_the_exact_path_on_the_catalog(elements):
    for ambient in (i2_segre(), forms.family_basis(), FormSpan(i2_segre().basis[3:9])):
        _same_as_the_exact_path(list(elements), ambient)


def test_the_bound_decides_generic_elements_and_leaves_the_rest_exact():
    x = LieElement(Matrix([[1, 2], [3, -1]]), Matrix([[gauss("1/2"), 0], [gauss("i"), gauss("-1/2")]]))
    y = LieElement(Matrix([[0, 1], [gauss("2-i"), 0]]), Matrix([[2, 5], [-1, -2]]))
    z = x + y.scale(3)
    # every coordinate of x P is 0 mod P, but its Jordan type is that of x: dimension 4
    vanishing = [x.scale(exact._P)]
    decided = {"x": [x], "y": [y], "x, y": [x, y], "x, y, z": [x, y, z], "all": FULL_BASIS, "mod P": vanishing}
    equal_det = LieElement(x.left, x.left)  # a 3-dimensional V2 (x) V2 kernel: dimension 6 > 4
    left_only = [T1]  # the dimension is 10, so no table
    torus = [S1, S2]  # the bound is 4 with two elements: only the invariant is known
    vanishing_pair = [x.scale(exact._P), y.scale(exact._P)]  # no closure and a bound of 20 mod P
    exact_path = {"equal -det": [equal_det], "t1": left_only, "torus": torus, "mod P pair": vanishing_pair}
    sizes = {}
    for name, elements in {**decided, **exact_path}.items():
        sizes[name] = len(_same_as_the_exact_path(list(elements)))
        assert _decided_by_the_bound(list(elements)) == (name in decided), name
    names = ("x", "equal -det", "t1", "mod P", "torus", "mod P pair")
    assert [sizes[name] for name in names] == [4, 6, 10, 4, 4, 1]


def _generic_coordinates(rng):
    """Six nonzero coordinates over Q(i), all real or not."""
    im = rng.random() < 0.5

    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))

    return [GaussianRational(part(), part() if im else Fraction(0)) for _ in FULL_BASIS]


def test_generic_algebras_solve_with_no_exact_kernel_or_product(monkeypatch):
    ambient = i2_segre()
    pieces = liealg._full_pieces(ambient)
    rng = random.Random(33)

    def generic():  # every coordinate nonzero, real or not
        return sum((c * b for c, b in zip(_generic_coordinates(rng), FULL_BASIS)), E)

    algebras = [[generic() for _ in range(n)] for n in (1, 2, 3) for _ in range(12)]
    expected = [lifted_solve_invariant(liealg._coordinate_rows(a), pieces) for a in algebras]
    invariant_forms([S1 + S2.scale(2)], ambient)  # the pieces, their invariant rows and the table exist from here on
    assert liealg._polarizations(pieces) is not None

    def raises(*args):
        raise AssertionError("the exact path ran on an algebra the bound should have decided")

    monkeypatch.setattr(exact, "_null_rows", raises)
    monkeypatch.setattr(Matrix, "_product", raises)
    for algebra, old in zip(algebras, expected):
        _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, old.coefficients)
    assert {len(old) for old in expected} == {1, 4}  # one element keeps four forms, more keep one


def test_warm_two_element_solves_take_no_rref_of_their_own(monkeypatch):
    # a generic pair generates all of sl2+sl2, and the solve reads the span's
    # one FULL_BASIS solve, made once: no rref runs on a warm solve
    ambient = i2_segre()
    pieces = liealg._full_pieces(ambient)
    rng = random.Random(34)
    algebras = [
        [sum((c * b for c, b in zip(_generic_coordinates(rng), FULL_BASIS)), E) for _ in range(2)]
        for _ in range(12)
    ]
    expected = [lifted_solve_invariant(liealg._coordinate_rows(a), pieces) for a in algebras]
    invariant_forms(algebras[0], ambient)  # the pieces, residues and reduced invariants exist from here on

    def raises(*args):
        raise AssertionError("a warm two-element solve took a rref")

    monkeypatch.setattr(Matrix, "rref", raises)
    for algebra, old in zip(algebras, expected):
        _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, old.coefficients)
    assert {len(old) for old in expected} == {1}


def test_known_forms_short_of_the_bound_leave_the_solve_to_the_exact_path():
    # tables that know fewer forms than the bound, patched in: the rank of the
    # known forms falls short, and the answer must still be the exact one
    pieces = liealg._full_pieces(i2_segre())
    x = LieElement(Matrix([[1, 2], [3, -1]]), Matrix([[gauss("1/2"), 0], [gauss("i"), gauss("-1/2")]]))
    rows = liealg._coordinate_rows([x])
    old = lifted_solve_invariant(rows, pieces)
    (table,) = liealg._polarizations(pieces)
    zero = Matrix.zero(1, table.cols)
    no_mixed = Matrix.stack([zero if (j >= 3) + (l >= 3) == 1 else table.row(k)
                             for k, (j, l) in enumerate(liealg._PAIRS)])
    for short in (Matrix.zero(table.rows, table.cols), no_mixed):
        new = solve_invariant(rows, pieces, lambda _: (short,))
        _same_lifted_rows(new.coefficients, old.coefficients)
    assert len(old) == 4


def test_a_polarization_outside_the_span_gives_no_table(monkeypatch):
    pieces = liealg._full_pieces(i2_segre())
    rows = liealg._polarization_rows

    def off_the_span(a, d):
        out = rows(a, d)
        unit = Matrix([[1] + [0] * (out.cols - 1)])  # y0^2 does not vanish on the surface
        return Matrix.stack([out.row(0) + unit, out.reindex(range(1, out.rows), range(out.cols))])

    liealg._polarizations.cache_clear()
    monkeypatch.setattr(liealg, "_polarization_rows", off_the_span)
    assert liealg._polarizations(pieces) is None
    monkeypatch.undo()
    liealg._polarizations.cache_clear()
    assert liealg._polarizations(pieces) is not None


def test_a_non_commuting_pair_of_basis_images_gives_no_table(monkeypatch):
    pieces = liealg._full_pieces(i2_segre())
    images = liealg._basis_images()
    # T2's image becomes that of Q1 + T2, which T1's image does not commute with
    mixed = Matrix.stack([images.reindex(range(3), range(81)), images.row(1) + images.row(3),
                          images.reindex((4, 5), range(81))])
    liealg._polarizations.cache_clear()
    monkeypatch.setattr(liealg, "_basis_images", lambda: mixed)
    assert liealg._polarizations(pieces) is None
    monkeypatch.undo()
    liealg._polarizations.cache_clear()
    assert liealg._polarizations(pieces) is not None


_NO_TABLE_IN_VERIFY = """
from celestial import liealg, verify
from celestial.segre import i2_segre
liealg.invariant_forms([liealg.T1], i2_segre())
after_t1 = liealg._polarizations.cache_info().currsize
# one check at a time, so that none runs in a forked worker
ok = all(r.ok for check_id, _, _ in verify.CHECKS for r in verify.run_checks(only=check_id))
print(ok, after_t1, liealg._polarizations.cache_info().currsize, liealg._invariant_rows.cache_info().currsize > 0)
"""


def test_neither_a_left_element_nor_verify_builds_the_polarization_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_TABLE_IN_VERIFY], env=env, capture_output=True, text=True, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["True", "0", "0", "True"]


# ---------------------------------------------------------------------------
# the action table is built once per span, and only when first asked for


def test_the_benchmark_set_up_builds_no_action_table():
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    setup = next(
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CODE" for t in stmt.targets)
    )
    code = (
        "import celestial.exact as exact\n"
        "calls = []\n"
        "images = exact.symmetric_images\n"
        "exact.symmetric_images = lambda *args: calls.append(args) or images(*args)\n"
        + setup
        + "from celestial import liealg\n"
        "print(len(calls), liealg._full_action_table.cache_info().currsize,"
        " liealg._full_pieces.cache_info().currsize, liealg._invariant_rows.cache_info().currsize,"
        " liealg._residue_pieces.cache_info().currsize, liealg._polarizations.cache_info().currsize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["0", "0", "0", "0", "0", "0"]


def _counted(calls, f):
    """f, appending its name to ``calls`` on every call."""

    def wrapper(*args):
        calls.append(f.__name__)
        return f(*args)

    return wrapper


def test_a_new_algebra_reuses_the_action_table(monkeypatch):
    ambient = i2_segre()
    invariant_forms([T1], ambient)  # the table exists from here on
    calls = []
    monkeypatch.setattr(liealg, "d_rep", _counted(calls, liealg.d_rep))
    monkeypatch.setattr(liealg, "symmetric_images", _counted(calls, liealg.symmetric_images))
    monkeypatch.setattr(liealg, "isotypic_pieces", _counted(calls, liealg.isotypic_pieces))
    x = LieElement(
        Matrix([[gauss("2/7+i"), 3], [gauss("1/5"), gauss("-2/7-i")]]),
        Matrix([[1, gauss("3i")], [gauss("-4/9"), -1]]),
    )
    span = invariant_forms([x, T2], ambient)
    assert calls == []
    monkeypatch.undo()
    _same_span_as_the_references(span, [d_rep(x), d_rep(T2)], ambient)


def test_a_new_veronese_algebra_reuses_the_action_table(monkeypatch):
    geometry.veronese_invariant_forms(geometry.so3_basis())  # the table exists from here on
    calls = []
    monkeypatch.setattr(geometry, "monomial_rep_derivative", _counted(calls, monomial_rep_derivative))
    monkeypatch.setattr(liealg, "symmetric_images", _counted(calls, liealg.symmetric_images))
    # a nilpotent element that keeps two forms, and a full gl3 pair that keeps none
    g = Matrix([[0, gauss("2/7+i"), 3], [0, 0, gauss("-3i")], [0, 0, 0]])
    h = Matrix([[gauss("2/7+i"), 3, 0], [gauss("1/5"), 1, gauss("-3i")], [2, 0, gauss("-4/9")]])
    algebras = ([g], [h, g])
    outs = [geometry.veronese_invariant_forms(a) for a in algebras]
    assert calls == []
    assert [len(out) for out in outs] == [2, 0]
    monkeypatch.undo()
    span = geometry.veronese_data()
    for out, algebra in zip(outs, algebras):
        tangents = [monomial_rep_derivative(x, VERONESE_MONOMIALS) for x in algebra]
        _same_span_as_the_references(out, tangents, span)


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


@given(_elements)
@settings(max_examples=80, deadline=None)
def test_d_rep_is_the_product_rule_on_the_element(x):
    assert d_rep(x) == product_rule_d_rep(x)


def test_d_rep_is_the_product_rule_on_the_basis_and_the_catalog():
    for x in (E, *FULL_BASIS, *(x for _, algebra in subalgebra_catalog() for x in algebra.basis)):
        assert d_rep(x) == product_rule_d_rep(x)


def test_a_trace_in_the_imaginary_part_alone_is_rejected():
    for half in (
        Matrix([["i", 0], [0, 0]]),
        Matrix([["1+i", 5], [0, -1]]),
        Matrix([["1/2+1/3i", 0], ["i", "-1/2+1/2i"]]),
    ):
        assert not entrywise_traceless(half)
        with pytest.raises(ValueError, match="traceless"):
            LieElement(half, Matrix.zero(2, 2))
        with pytest.raises(ValueError, match="traceless"):
            LieElement(Matrix.zero(2, 2), half)


@st.composite
def _two_by_two_halves(draw):
    """A 2x2 matrix over Q(i): traceless, with a real or an imaginary trace, or arbitrary."""
    a, b, c, d = (draw(_entries) for _ in range(4))
    kind = draw(st.sampled_from(("traceless", "real-trace", "imaginary-trace", "any")))
    if kind == "traceless":
        d = -a
    elif kind == "real-trace":
        d = -a + GaussianRational(draw(_small))
    elif kind == "imaginary-trace":
        d = -a + GaussianRational(Fraction(0), draw(_small))
    return Matrix([[a, b], [c, d]])


@given(_two_by_two_halves(), _two_by_two_halves())
@settings(max_examples=150, deadline=None)
def test_tracelessness_is_read_as_on_the_entries(left, right):
    try:
        LieElement(left, right)
        made = True
    except ValueError:
        made = False
    assert made == (entrywise_traceless(left) and entrywise_traceless(right))


# ---------------------------------------------------------------------------
# the infinitesimal stabilizer of a span


def test_the_family_span_is_stabilized_by_the_torus_alone():
    stabilizer = span_stabilizer(FormSpan(i2_segre().basis[:4]))
    assert stabilizer == [S1, S2]


def test_the_whole_ideal_is_stabilized_by_everything():
    stabilizer = span_stabilizer(i2_segre())
    assert len(stabilizer) == 6


@pytest.mark.parametrize("name", ["so2xso2", "so2xsx1", "so2xse1", "sl2xsl2", "family"])
def test_stabilizer_matches_the_per_form_stabilizer(name):
    if name == "family":
        span = forms.family_basis()
    else:
        span = invariant_forms(liealg.NAMED_ALGEBRAS[name], i2_segre())
    new, old = span_stabilizer(span), per_form_span_stabilizer(span)
    # the kernel basis is canonical, and here it is the oracle's basis in echelon form
    assert Matrix([coordinates(x) for x in new]) == Matrix([coordinates(x) for x in old]).rref()[0]


def test_a_span_off_the_torus_weights_has_a_smaller_stabilizer():
    basis = i2_segre().basis
    mixed = QuadraticForm(basis[3].matrix + basis[4].matrix)
    stabilizer = span_stabilizer(FormSpan(basis[:3] + (mixed,)))
    assert len(stabilizer) == 1
    assert not span_contains(stabilizer, S1)


# ---------------------------------------------------------------------------
# the solve decided by the subalgebra that the elements generate


def test_d_rep_is_a_lie_homomorphism_on_every_pair_of_the_basis():
    # both sides are bilinear and antisymmetric, so these 15 pairs prove
    # D_[x,y] = [D_x, D_y] for all x and y, which the shortcut rests on
    images = [d_rep(x) for x in FULL_BASIS]
    pairs = [(j, l) for j in range(len(FULL_BASIS)) for l in range(j + 1, len(FULL_BASIS))]
    assert len(pairs) == 15
    for j, l in pairs:
        lhs = d_rep(bracket(FULL_BASIS[j], FULL_BASIS[l]))
        assert lhs == images[j] * images[l] - images[l] * images[j], (j, l)


def test_the_bracket_table_is_the_bracket_modulo_p():
    table = {}
    for j, l, k, c in liealg._bracket_terms():
        table.setdefault((j, l), [0] * len(FULL_BASIS))[k] = c % exact._P
    pairs = [(j, x, l, y) for j, x in enumerate(FULL_BASIS) for l, y in enumerate(FULL_BASIS)]
    assert len(pairs) == 36
    for j, x, l, y in pairs:
        row = liealg._coordinate_rows((bracket(x, y),))
        assert row._dens == (1,)
        assert table.get((j, l), [0] * len(FULL_BASIS)) == exact._residues(row._ints[0], row.is_real), (j, l)
    assert len(liealg._bracket_terms()) == 12  # [T, Q], [T, S] and [Q, S] in each half, both ways


_GENERIC_X = LieElement(Matrix([[1, 2], [3, -1]]), Matrix([[gauss("1/2"), 0], [gauss("i"), gauss("-1/2")]]))
_GENERIC_Y = LieElement(Matrix([[0, 1], [gauss("2-i"), 0]]), Matrix([[2, 5], [-1, -2]]))
_LEFT_ONLY = LieElement(_GENERIC_X.left, Matrix.zero(2, 2))

# elements, the dimension of the subalgebra they generate, and its rank modulo P
_GENERATED = {
    "torus": ([S1, S2], 2, 2),
    "scaled torus": ([I * S1, S2.scale(-3)], 2, 2),
    "Borel": ([T1, S1], 2, 2),
    "diagonal": ([T1 + T2, Q1 + Q2], 3, 3),
    "zero half": ([_LEFT_ONLY, LieElement(_GENERIC_Y.left, Matrix.zero(2, 2))], 3, 3),
    "repeated": ([_GENERIC_X, _GENERIC_X.scale(2)], 1, 1),
    "sl2 + Borel": ([T1, Q1 + S2, T2], 5, 5),
    "Borel + Borel": ([T1 + T2, S1, S2], 4, 4),
    "diagonal Borel": ([T1 + T2, S1 + S2.scale(2)], 3, 3),
    "generic pair": ([_GENERIC_X, _GENERIC_Y], 6, 6),
    "generic triple": ([_GENERIC_X, _GENERIC_Y, _GENERIC_X + _GENERIC_Y.scale(3)], 6, 6),
    "repeated in a triple": ([_GENERIC_X, _GENERIC_Y, _GENERIC_X], 6, 6),
    "full basis": (list(FULL_BASIS), 6, 6),
    "a multiple of P": ([_GENERIC_X.scale(exact._P), _GENERIC_Y], 6, 1),  # x vanishes mod P
}


@pytest.mark.parametrize("name", list(_GENERATED))
def test_the_rank_modulo_p_of_the_generated_subalgebra(name):
    elements, dimension, rank = _GENERATED[name]
    assert generated_dimension(elements) == dimension
    assert generated_dimension(elements, modulo_p=True) == rank
    assert liealg._generated_rank_mod_p(liealg._coordinate_rows(elements)) == rank


@pytest.mark.parametrize("name", list(_GENERATED))
def test_the_shortcut_is_taken_exactly_when_the_elements_generate_everything(name, monkeypatch):
    elements, _, rank = _GENERATED[name]
    liealg._full_forms(i2_segre())  # the one FULL_BASIS solve is made from here on
    calls = []
    solve = liealg.solve_invariant
    monkeypatch.setattr(liealg, "solve_invariant", lambda *args: calls.append(args) or solve(*args))
    _same_as_the_exact_path(elements)
    assert bool(calls) == (rank < len(FULL_BASIS))


@functools.lru_cache(maxsize=None)
def _non_real_spans() -> tuple[FormSpan, ...]:
    """Spans of I2's binomials mixed over Q(i): their tables and residues are not real."""
    c = i2_segre().coefficients
    mixes = ([(0, 5), (1, 7), (2, None)], [(3, 4), (6, None), (8, 9), (10, 11)])
    return tuple(
        FormSpan.row_space(
            Matrix.stack([c.row(a) if b is None else c.row(a) + c.row(b).scale(I) for a, b in mix]),
            coords=tuple(range(9)),
        )
        for mix in mixes
    )


@pytest.mark.parametrize("name", ["torus", "Borel", "generic pair", "generic triple", "sl2 + Borel"])
def test_solves_on_non_real_spans_match_the_exact_path(name):
    elements = _GENERATED[name][0]
    for span in _non_real_spans():
        assert not span.coefficients.is_real
        assert not any(table.blocks.is_real for table in liealg._full_pieces(span))
        for k in range(1, len(elements) + 1):
            _same_as_the_exact_path(elements[:k], span)


_SPECIAL_ALGEBRAS = st.sampled_from([elements for elements, _, _ in _GENERATED.values() if len(elements) <= 3])


@st.composite
def _two_or_three_elements(draw):
    """2 or 3 elements: a listed algebra, drawn degenerate halves, or those with one repeated."""
    kind = draw(st.sampled_from(("listed", "drawn", "repeated")))
    if kind == "listed":
        return list(draw(_SPECIAL_ALGEBRAS))
    elements = draw(st.lists(_degenerate_halves(), min_size=2, max_size=3))
    if kind == "repeated":
        elements = elements[:2] + [draw(st.sampled_from(elements[:2]))]
    return elements


@given(_two_or_three_elements(), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_two_and_three_element_solves_match_the_exact_path(elements, which):
    ambient = (i2_segre(), forms.family_basis(), *_non_real_spans())[which]
    _same_as_the_exact_path(elements, ambient)
    # the rank modulo P is a lower bound on the dimension, so 6 is a proof
    rank = liealg._generated_rank_mod_p(liealg._coordinate_rows(elements))
    assert rank == generated_dimension(elements, modulo_p=True) <= generated_dimension(elements)


def test_warm_generic_solves_take_no_rank_modulo_p(monkeypatch):
    # a generic pair or triple generates all of sl2+sl2, and the closure
    # modulo P proves it: no piece system is made or ranked modulo P
    ambient = i2_segre()
    pieces = liealg._full_pieces(ambient)
    rng = random.Random(35)
    algebras = [
        [sum((c * b for c, b in zip(_generic_coordinates(rng), FULL_BASIS)), E) for _ in range(n)]
        for n in (2, 3) for _ in range(8)
    ]
    expected = [lifted_solve_invariant(liealg._coordinate_rows(a), pieces) for a in algebras]
    invariant_forms(algebras[0], ambient)  # the structure constants and the FULL_BASIS answer exist from here on

    def raises(*args):
        raise AssertionError("a warm generic solve bounded its pieces modulo P")

    # the bound alone makes (_times_mod_p) and ranks (_rank_mod_p) piece
    # systems modulo P; the closure shares only their step, _take_mod_p
    monkeypatch.setattr(liealg, "_times_mod_p", raises)
    monkeypatch.setattr(liealg, "_rank_mod_p", raises)
    for algebra, old in zip(algebras, expected):
        _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, old.coefficients)
    assert {len(old) for old in expected} == {1}


# ---------------------------------------------------------------------------
# one element decided by its Jordan type, on pieces of known weights


@functools.lru_cache(maxsize=None)
def _all_quadrics() -> FormSpan:
    """Every quadric on P^8: Sym^2(V2 (x) V2), whose pieces add V4 (x) V4 to those of I2."""
    return FormSpan.from_rows(Matrix.identity(45), coords=tuple(range(9)))


def _doubled(piece):
    """Two copies of a piece as one table: each system twice on the diagonal, over 2d unit rows."""
    d = piece.reduced.rows
    zero = [ZERO] * d
    blocks = []
    for j in range(len(FULL_BASIS)):
        system = piece.blocks.row(j).reshape(d, d).entries()
        doubled = [list(row) + zero for row in system] + [zero + list(row) for row in system]
        blocks.append(Matrix(doubled).reshape(1, 4 * d * d))
    return liealg.ActionTable(Matrix.identity(2 * d), (), Matrix.stack(blocks), (), piece.weights)


def _kernel_dimension(rows, pieces) -> int:
    """The sum over the pieces of k less the rank of the element's system, [Phi | E]^T."""
    total = 0
    for table in pieces:
        k = table.reduced.rows
        total += k - (rows * table.blocks).reshape(k + len(table.residual), k).rank()
    return total


_NONZERO = _entries.filter(bool)


@st.composite
def _half(draw, kind):
    """A traceless 2x2 half of one Jordan type."""
    if kind == "zero":
        return Matrix.zero(2, 2)
    if kind == "nilpotent":  # [[tu, t^2], [-u^2, -tu]] with t != 0
        t, u = draw(_NONZERO), draw(_entries)
        return Matrix([[t * u, t * t], [-(u * u), -(t * u)]])
    part = st.builds(GaussianRational, _small) if kind == "real semisimple" else _entries
    a, b, c = draw(part), draw(part), draw(part)
    if not a * a + b * c:  # -det: nudge it off zero
        a = a + 1
    return Matrix([[a, b], [c, -a]])


_HALF_KINDS = ("zero", "nilpotent", "real semisimple", "Gaussian semisimple")


@st.composite
def _jordan_elements(draw):
    """One element: halves of drawn Jordan types, two nilpotent halves, or semisimple halves with det Y = c det X.

    c is 1, -1 or 4.
    """
    kind = draw(st.sampled_from(("halves", "nilpotent", "det X = det Y", "det X = -det Y", "det Y = 4 det X")))
    if kind in ("halves", "nilpotent"):
        kinds = _HALF_KINDS if kind == "halves" else ("nilpotent",)
        x, y = (draw(_half(draw(st.sampled_from(kinds)))) for _ in range(2))
        return LieElement(x, y)
    x = draw(_half(draw(st.sampled_from(_HALF_KINDS[2:]))))
    g = Matrix([[1, draw(_entries)], [0, 1]])
    g_inv = Matrix([[1, -g[0, 1]], [0, 1]])
    y = draw(st.sampled_from((x, -x, x.transpose(), g * x * g_inv)))
    if kind == "det X = -det Y":
        y = y.scale(I)  # det(iY) = -det Y
    elif kind == "det Y = 4 det X":
        y = y.scale(2)
    return LieElement(*draw(st.permutations((x, y))))


def _jordan_pieces():
    """I2's pieces, those of every quadric, and two copies of I2's V4 (x) V0 as one table."""
    i2 = liealg._full_pieces(i2_segre())
    return i2, liealg._full_pieces(_all_quadrics()), (_doubled(next(p for p in i2 if p.weights == (4, 0))),)


@given(_jordan_elements())
@settings(max_examples=150, deadline=None)
def test_the_jordan_type_gives_the_dimension_of_the_answer(x):
    rows = liealg._coordinate_rows([x])
    for pieces in _jordan_pieces():
        assert all(table.weights for table in pieces)
        found = liealg._jordan_dimension(rows, pieces)
        assert found == _kernel_dimension(rows, pieces) <= mod_p_dimension_bound(rows, pieces)
    for ambient in (i2_segre(), _all_quadrics()):
        pieces = liealg._full_pieces(ambient)
        assert len(_same_as_the_exact_path([x], ambient)) == liealg._jordan_dimension(rows, pieces)


_T, _Q, _H = (x.left for x in (T1, Q1, S1))

# one element, and the dimension of its answer on I2 and on every quadric
_JORDAN_TYPES = {
    "zero": (E, 20, 45),
    "nilpotent, zero": (T1, 10, 15),
    "zero, semisimple": (S2, 10, 15),
    "nilpotent, nilpotent": (LieElement(_T, _Q), 6, 11),  # Clebsch-Gordan on V4 (x) V4: 5, not 9
    "nilpotent, semisimple": (LieElement(_T, _H), 4, 5),
    "det X = det Y": (LieElement(_H, _H.transpose()), 6, 11),
    "det X = -det Y": (LieElement(_H, _H.scale(I)), 4, 5),
    "det Y = 4 det X": (LieElement(_H, _H.scale(2)), 4, 7),
    "det X = 4 det Y": (LieElement((_T + _Q).scale(2), _H), 4, 7),
    "generic": (_GENERIC_X, 4, 5),
}


@pytest.mark.parametrize("name", list(_JORDAN_TYPES))
def test_the_jordan_type_meets_the_bound_modulo_p_on_listed_elements(name):
    x, on_i2, on_all = _JORDAN_TYPES[name]
    rows = liealg._coordinate_rows([x])
    for ambient, expected in ((i2_segre(), on_i2), (_all_quadrics(), on_all)):
        pieces = liealg._full_pieces(ambient)
        assert liealg._jordan_dimension(rows, pieces) == mod_p_dimension_bound(rows, pieces) == expected
        assert len(_same_as_the_exact_path([x], ambient)) == expected


@pytest.mark.parametrize("which", ["family", "I2 rows 3-8", "non-real 0", "non-real 1", "unsplit I2", "Veronese"])
def test_tables_without_weights_keep_the_bound_modulo_p(which, monkeypatch):
    # a table with a residual, or one not split into isotypic pieces (the
    # whole I2 table, the Veronese table over gl3) has no weights: the
    # formula must not be used, and the bound modulo P decides
    spans = {"family": forms.family_basis(), "I2 rows 3-8": FormSpan(i2_segre().basis[3:9])}
    spans.update({f"non-real {i}": span for i, span in enumerate(_non_real_spans())})
    if which == "Veronese":
        pieces = (geometry._veronese_action_table(),)
        rows = Matrix([[x for row in geometry.so3_basis()[0].entries() for x in row]])
    elif which == "unsplit I2":
        pieces, rows = (liealg._full_action_table(i2_segre()),), liealg._coordinate_rows([_GENERIC_X])
    else:
        pieces, rows = liealg._full_pieces(spans[which]), liealg._coordinate_rows([_GENERIC_X])
    assert all(table.weights is None for table in pieces)
    assert bool(pieces[0].residual) == (which not in ("unsplit I2", "Veronese"))
    assert liealg._jordan_dimension(rows, pieces) is None
    calls = []
    bound = liealg._mod_p_bound
    monkeypatch.setattr(liealg, "_mod_p_bound", lambda *args: calls.append(args) or bound(*args))
    new = solve_invariant(rows, pieces, liealg._polarizations)
    _same_lifted_rows(new.coefficients, lifted_solve_invariant(rows, pieces).coefficients)
    assert len(calls) == 1


def test_warm_one_element_solves_take_no_rank_modulo_p(monkeypatch):
    # one element on I2's pieces is decided by its Jordan type: no piece
    # system is made or ranked modulo P, on the known forms or on the exact path
    ambient = i2_segre()
    pieces = liealg._full_pieces(ambient)
    rng = random.Random(37)
    generic = [sum((c * b for c, b in zip(_generic_coordinates(rng), FULL_BASIS)), E) for _ in range(8)]
    algebras = [[x] for x in generic] + [[x] for x, _, _ in _JORDAN_TYPES.values()]
    expected = [lifted_solve_invariant(liealg._coordinate_rows(a), pieces) for a in algebras]
    invariant_forms(algebras[0], ambient)  # the pieces, their invariant rows and the table exist from here on

    def raises(*args):
        raise AssertionError("a warm one-element solve bounded its pieces modulo P")

    monkeypatch.setattr(liealg, "_times_mod_p", raises)
    monkeypatch.setattr(liealg, "_rank_mod_p", raises)
    for algebra, old in zip(algebras, expected):
        _same_lifted_rows(invariant_forms(algebra, ambient).coefficients, old.coefficients)
    assert {len(old) for old in expected} == {4, 6, 10, 20}
