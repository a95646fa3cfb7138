"""Field laws and exact linear algebra.

The matrix kernels compute over the Gaussian integers.  The Fraction
implementation they replaced lives on below as an oracle, and the
properties at the end compare the two, and both with sympy when installed.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial.exact import (
    GaussianRational,
    I,
    Matrix,
    ONE,
    Signature,
    ZERO,
    congruence_diagonalize,
    gauss,
    kernel,
    signature,
    solve,
    symmetric_images,
)
from celestial import exact
from celestial.exact import _combine_z, _combine_zi, _common_kernel, _lift
from celestial.segre import QuadraticForm
from oracles import (
    certified_congruence_diagonalize,
    column_kernel,
    column_solve,
    column_vector,
    dense_combine_z,
    dense_combine_zi,
    dense_rank_mod_p,
    elimination_solve,
    gauss_jordan_kernel,
    lazy_congruence_diagonalize,
    lift,
    oracle_congruence_diagonal,
    rebuilt_terms_product,
    simplest_first,
    term_symmetric_images,
    two_pass_rref,
)


small_fractions = st.sampled_from(simplest_first(10, 12))
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_inverses_and_conjugation(a):
    assert a.conjugate().conjugate() == a
    assert a.norm() >= 0
    assert (a.norm() == 0) == (not a)
    if a:
        assert a * (ONE / a) == ONE


@given(gaussians)
def test_norm_is_conjugate_product(a):
    assert a * a.conjugate() == GaussianRational(a.norm())


def test_parse_round_trips():
    for text in ("0", "-3", "1/2", "i", "-i", "2i", "1+2i", "1/2-3/4i"):
        z = GaussianRational.parse(text)
        assert GaussianRational.parse(str(z)) == z
    half = Fraction(1, 2)
    for text, value in ((" 1 - i ", (1, -1)), ("-1/2+i", (-half, 1)), ("+i", (0, 1))):
        assert GaussianRational.parse(text) == GaussianRational(*map(Fraction, value))
    # every sign must lead a term: a stray one is an error, not a zero or a dropped character
    for text in ("elephant", "-", "+", "1-", "--1", "1-+2", "i+", "1/2--i"):
        with pytest.raises(ValueError, match="cannot parse"):
            GaussianRational.parse(text)


def test_kernel_identity_is_trivial():
    basis = kernel(Matrix.identity(3))
    assert (basis.rows, basis.cols) == (0, 3)


def test_kernel_of_zero_matrix():
    basis = kernel(Matrix.zero(2, 2))
    assert basis.rows == 2


def test_kernel_hermitian_rank_one():
    m = Matrix([[1, "i"], ["-i", 1]])
    basis = kernel(m)
    assert basis.rows == 1
    assert m * basis.transpose() == Matrix.zero(2, 1)


def test_solve_membership():
    m = Matrix([[1, 0], [0, 0]])
    assert solve(m, Matrix([[3, 0]])) is not None
    assert solve(m, Matrix([[0, 1]])) is None


def _certified(a):
    """The D of ``congruence_diagonalize``, checked against the oracle that also builds P."""
    d = congruence_diagonalize(a)
    expected, p = certified_congruence_diagonalize(a)
    assert d == expected
    assert p.transpose() * a * p == d
    assert p.det()
    return d, p


def test_congruence_diagonal_input():
    a = Matrix([[1, 0], [0, -1]])
    d, p = _certified(a)
    assert d == a
    assert p == Matrix.identity(2)


def test_congruence_hyperbolic_plane():
    # no nonzero diagonal entry: the first step takes the e_k += e_j repair
    a = Matrix([[0, 1], [1, 0]])
    d, _ = _certified(a)
    entries = [d[i, i].re for i in range(2)]
    assert sum(1 for x in entries if x > 0) == 1
    assert sum(1 for x in entries if x < 0) == 1


def _veronese_invariant_matrix():
    # x1^2 + x2^2 + x3^2 - x0 x4 - x0 x5 - x4 x5 on six coordinates
    h = Fraction(-1, 2)
    m = [[Fraction(0)] * 6 for _ in range(6)]
    for k in (1, 2, 3):
        m[k][k] = Fraction(1)
    for i, j in ((0, 4), (0, 5), (4, 5)):
        m[i][j] = m[j][i] = h
    return Matrix(m)


def test_congruence_six_dimensional_example():
    a = _veronese_invariant_matrix()
    d, _ = _certified(a)
    entries = [d[i, i].re for i in range(6)]
    counts = (
        sum(1 for x in entries if x > 0),
        sum(1 for x in entries if x < 0),
    )
    assert counts in ((5, 1), (1, 5))
    assert signature(a) == Signature(1, 5, 0)


def _diagonal(values):
    n = len(values)
    return Matrix([[Fraction(values[i]) if i == j else 0 for j in range(n)] for i in range(n)])


# each case drives a path where a step leaves rows it would only have rescaled
LAZY_CONGRUENCE_CASES = {
    # every row is skipped at every step, and each pivot row takes its
    # scalings first; the zero entry takes the "already clear" branch
    "diagonal-9x9": _diagonal([Fraction(1, 4), -1, -1, 2, -3, 0, Fraction(5, 2), -1, 7]),
    # rows 2 and 3 have no entry in columns 0 and 1, so both steps skip
    # them; row 2 then becomes the pivot row at level 1 under pivot 5
    "skipped-twice-then-pivot": Matrix(
        [[2, 1, 0, 0, 0], [1, 3, 0, 0, 1], [0, 0, 5, 1, 0], [0, 0, 1, 7, 1], [0, 1, 0, 1, 4]]
    ),
    # step 0 rewrites row 1 to a zero diagonal and skips rows 2 and 3, so
    # the e_1 += e_2 repair adds row 2 before it has taken its scaling by 2
    "repair-with-a-skipped-partner": Matrix(
        [[2, 2, 0, 0], [2, 2, 3, 0], [0, 3, 0, 1], [0, 0, 1, 0]]
    ),
    # step 0 rewrites row 1 to a zero diagonal and skips row 2, which the
    # swap then moves up to be the pivot row, its level going with it
    "swap-with-a-stale-row": Matrix(
        [[4, 2, 0, 0], [2, 1, 0, 1], [0, 0, 3, 1], [0, 1, 1, 0]]
    ),
}


@pytest.mark.parametrize("name", sorted(LAZY_CONGRUENCE_CASES))
def test_lazy_congruence_matches_the_eager_oracle(name):
    a = LAZY_CONGRUENCE_CASES[name]
    d, _ = _certified(a)
    assert [_sign(d[i, i].re) for i in range(a.rows)] == [
        _sign(x) for x in oracle_congruence_diagonal(a.entries())
    ]


@pytest.mark.parametrize("name", sorted(LAZY_CONGRUENCE_CASES))
def test_lazy_congruence_cases_match_sympy_inertia(name):
    a = LAZY_CONGRUENCE_CASES[name]
    assert signature(a) == _sympy_signature(a)


def test_signature_normalization():
    assert signature(Matrix.identity(3)) == Signature(0, 3, 0)
    assert signature(Matrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)


def test_signature_rejects_nonreal_and_asymmetric():
    with pytest.raises(ValueError):
        signature(Matrix([[0, "i"], ["-i", 0]]))
    with pytest.raises(ValueError):
        signature(Matrix([[0, 1], [0, 0]]))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_signature_counts_sum_to_dimension(seed):
    import random

    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3))
    sig = signature(Matrix(m))
    assert sig.pos + sig.neg + sig.zero == n
    assert sig.pos <= sig.neg


def test_signature_congruence_invariance():
    import random

    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice((3, 4))
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = Matrix(sym)
        q = Matrix.identity(n)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            shear = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            shear[i][j] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            q = q * Matrix(shear)
        assert signature(q.transpose() * a * q) == signature(a)


def test_matrix_determinant_and_rank():
    m = Matrix([[1, 2], [3, 4]])
    assert m.det() == gauss(-2)
    assert m.rank() == 2
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


# ---------------------------------------------------------------------------
# the Fraction implementation, kept as the oracle for the Gaussian-integer core


def oracle_mul(a, b):
    out = [[ZERO] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out[i][j] = out[i][j] + x * y
    return out


def oracle_rref(rows):
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [inv * a if a else a for a in m[r]]
        lead = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, tuple(pivots)


def oracle_det(rows):
    m = [list(row) for row in rows]
    n = len(m)
    det = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def oracle_kernel(rows, ncols):
    red, pivots = oracle_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# matrices: real or Gaussian, full rank or not, with repeated and zero rows

small_rationals = st.sampled_from(simplest_first(6, 4))


@st.composite
def matrices(draw, real=None, rows=None, cols=None):
    real = draw(st.booleans()) if real is None else real
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols

    def grid(n, m):
        # one index draw per part of each entry, in a flat run; no nested list strategies
        zero = Fraction(0)
        flat = [GaussianRational(draw(small_rationals), zero if real else draw(small_rationals))
                for _ in range(n * m)]
        return [flat[i : i + m] for i in range(0, n * m, m)]

    shape = draw(st.sampled_from(("plain", "low-rank", "repeated-row", "zero-row")))
    if shape == "low-rank" and min(rows, cols) > 1:
        r = draw(st.integers(1, min(rows, cols) - 1))
        return Matrix(oracle_mul(grid(rows, r), grid(r, cols)))
    out = grid(rows, cols)
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
    if shape == "repeated-row":
        out[i] = list(out[j])
    elif shape == "zero-row":
        out[i] = [ZERO] * cols
    return Matrix(out)


@st.composite
def square_matrices(draw, real=None):
    n = draw(st.integers(1, 5))
    return draw(matrices(real=real, rows=n, cols=n))


@st.composite
def symmetric_matrices(draw, zero_diagonal=None):
    n = draw(st.integers(1, 6))
    zero_diagonal = draw(st.booleans()) if zero_diagonal is None else zero_diagonal
    sym = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            sym[i][j] = sym[j][i] = draw(st.one_of(st.just(Fraction(0)), small_rationals))
    return Matrix(sym)


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric matrices up to 9x9 that are mostly zeros, or block-diagonal.

    Most steps of the congruence then meet rows with nothing in the pivot
    column, which it leaves unscaled until they are needed.
    """
    n = draw(st.integers(1, 9))
    sym = [[Fraction(0)] * n for _ in range(n)]
    if draw(st.booleans()):  # mostly zeros
        for i in range(n):
            for j in range(i, n):
                if draw(st.integers(0, 3)) == 0:
                    sym[i][j] = sym[j][i] = draw(small_rationals)
    else:  # dense blocks along the diagonal, some with a zero diagonal
        start = 0
        while start < n:
            end = min(n, start + draw(st.integers(1, 3)))
            zero_diagonal = draw(st.booleans())
            for i in range(start, end):
                for j in range(i, end):
                    if not (i == j and zero_diagonal):
                        sym[i][j] = sym[j][i] = draw(small_rationals)
            start = end
    return Matrix(sym)


def _fresh_is_symmetric(m: Matrix) -> bool:
    e = m.entries()
    return m.rows == m.cols and all(e[i][j] == e[j][i] for i in range(m.rows) for j in range(i))


_squares = st.integers(1, 5).flatmap(lambda n: matrices(rows=n, cols=n))
_upper_rows = st.integers(1, 4).flatmap(lambda n: matrices(rows=1, cols=n * (n + 1) // 2))


@given(
    st.one_of(
        matrices(),  # mostly non-square, real or complex
        _squares,
        _squares.map(lambda m: m + m.transpose()),  # symmetric, complex half the time
        symmetric_matrices(),
        sparse_symmetric_matrices(),
    )
)
@settings(deadline=None)
def test_symmetry_verdict_is_computed_once_and_matches_a_fresh_one(m):
    assert m._sym is None
    fresh = _fresh_is_symmetric(m)
    assert m.is_symmetric is fresh
    assert m._sym is fresh
    assert m.is_symmetric is fresh


@given(_upper_rows)
@settings(deadline=None)
def test_a_matrix_built_symmetric_carries_a_true_verdict(vec):
    m = Matrix.symmetric(vec)
    assert m._sym is True
    assert _fresh_is_symmetric(m)
    assert m == Matrix(m.entries()) and Matrix(m.entries()).is_symmetric


def _lifted_upper(m: Matrix) -> Matrix:
    """The upper triangle through the canonicalizing constructor, the path for any matrix."""
    rows, den = m._common()
    vec = [x for i, row in enumerate(rows) for x in row[i:]]
    return Matrix._lifted(m._real, (den,), (vec,), len(vec))


def _entrywise_upper(m: Matrix) -> Matrix:
    return Matrix([[m[i, j] for i in range(m.rows) for j in range(i, m.cols)]])


@given(
    st.one_of(
        symmetric_matrices(),  # real
        sparse_symmetric_matrices(),
        _squares.map(lambda m: m + m.transpose()),  # Gaussian half the time
        _upper_rows.map(Matrix.symmetric),
        st.integers(1, 6).map(lambda n: Matrix.zero(n, n)),
    )
)
@settings(deadline=None)
def test_the_upper_triangle_of_a_symmetric_matrix_skips_the_canonical_pass(m):
    assert m.is_symmetric
    expected = _lifted_upper(m)
    with _counting_canonical() as calls:
        up = m.upper()
    assert calls == []
    assert (up._real, up._dens, up._ints, up.cols) == (expected._real, expected._dens, expected._ints, expected.cols)
    assert up == _entrywise_upper(m)


@given(_squares)
@settings(deadline=None)
def test_the_upper_triangle_of_any_square_matrix_is_its_canonical_form(m):
    up = m.upper()
    expected = _lifted_upper(m)
    assert (up._real, up._dens, up._ints) == (expected._real, expected._dens, expected._ints)
    assert up == _entrywise_upper(m)


def test_a_non_symmetric_matrix_is_rejected_by_both_checks():
    m = Matrix([[1, 2], [3, 4]])
    for _ in range(2):  # before and after the verdict is cached
        with pytest.raises(ValueError, match="quadratic form matrix must be symmetric"):
            QuadraticForm(m)
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            congruence_diagonalize(m)
    assert m._sym is False


@given(matrices())
@settings(deadline=None)
def test_rref_rank_kernel_match_the_fraction_oracle(m):
    red, pivots = m.rref()
    old_red, old_pivots = oracle_rref(m.entries())
    assert pivots == old_pivots
    assert red == Matrix(old_red)
    assert m.rank() == len(old_pivots)
    assert kernel(m).entries() == tuple(tuple(v) for v in oracle_kernel(m.entries(), m.cols))


@st.composite
def real_rows_times_gaussians(draw):
    """A real matrix with each row times a nonzero Gaussian: a real rref, mostly of non-real rows."""
    m = draw(matrices(real=True))
    factors = [draw(gaussians.filter(bool)) for _ in range(m.rows)]
    return Matrix([[f * x for x in row] for f, row in zip(factors, m.entries())])


@given(st.one_of(matrices(), real_rows_times_gaussians()))
@settings(max_examples=150, deadline=None)
def test_the_fused_rref_tail_matches_the_two_pass_tail(m):
    # plain, low-rank, repeated-row and zero-row shapes, all real or not, and
    # Gaussian rows whose imaginary parts all cancel in the reduced form
    red, pivots = m.rref()
    old, old_pivots = two_pass_rref(m)
    assert pivots == old_pivots
    assert (red.is_real, red._dens, red._ints) == (old.is_real, old._dens, old._ints)


@given(matrices())
@settings(deadline=None)
def test_kernel_rows_are_the_column_kernel(m):
    basis = kernel(m)
    assert basis.cols == m.cols
    assert basis.entries() == tuple(column_vector(v) for v in column_kernel(m))


@given(matrices(), st.data())
@settings(deadline=None)
def test_solve_matches_the_fraction_oracle(m, data):
    rhs = data.draw(matrices(rows=1, cols=m.cols))
    x = solve(m, rhs)
    columns = zip(*m.entries())
    red, pivots = oracle_rref([list(col) + [rhs[0, j]] for j, col in enumerate(columns)])
    if m.rows in pivots:
        assert x is None
    else:
        expected = [ZERO] * m.rows
        for r, p in enumerate(pivots):
            expected[p] = red[r][m.rows]
        assert x == tuple(expected)
        assert Matrix([x]) * m == rhs


@given(matrices(), st.data())
@settings(deadline=None)
def test_solve_is_the_column_solve_of_the_transpose(m, data):
    rhs = data.draw(matrices(rows=1, cols=m.cols))
    old = column_solve(m.transpose(), rhs.transpose())
    assert solve(m, rhs) == (None if old is None else column_vector(old))


@st.composite
def solve_problems(draw):
    """(m, rhs): a random rhs (often inconsistent), a consistent one x*m, or an empty m."""
    kind = draw(st.sampled_from(("random", "consistent", "empty")))
    if kind == "empty":
        cols = draw(st.integers(1, 6))
        rhs = draw(st.one_of(st.just(Matrix.zero(1, cols)), matrices(rows=1, cols=cols)))
        return Matrix.zero(0, cols), rhs
    m = draw(matrices())
    if kind == "consistent":
        return m, draw(matrices(rows=1, cols=m.rows)) * m
    return m, draw(matrices(rows=1, cols=m.cols))


@given(solve_problems())
@settings(deadline=None)
def test_solve_matches_the_elimination_oracle(problem):
    m, rhs = problem
    x = solve(m, rhs)
    assert x == elimination_solve(m, rhs)
    if x is not None:
        assert Matrix([x]) * m == rhs


def test_solve_of_an_inconsistent_system_and_an_empty_matrix():
    m = Matrix([[1, "i", 0], [2, "2i", 0]])
    for rhs, expected in (([[0, 0, 1]], None), ([[1, "i", 1]], None), ([[3, "3i", 0]], (gauss(3), ZERO))):
        assert solve(m, Matrix(rhs)) == elimination_solve(m, Matrix(rhs)) == expected
    empty = Matrix.zero(0, 3)
    assert solve(empty, Matrix.zero(1, 3)) == elimination_solve(empty, Matrix.zero(1, 3)) == ()
    assert solve(empty, Matrix([[0, "i", 0]])) is elimination_solve(empty, Matrix([[0, "i", 0]])) is None


@given(square_matrices())
@settings(deadline=None)
def test_det_matches_the_fraction_oracle(m):
    assert m.det() == oracle_det(m.entries())


@given(matrices(), st.data())
@settings(deadline=None)
def test_product_matches_the_fraction_oracle(a, data):
    b = data.draw(matrices(rows=a.cols))
    assert a * b == Matrix(oracle_mul(a.entries(), b.entries()))


@given(matrices(), st.data())
@settings(deadline=None)
def test_product_matches_the_per_call_term_build(a, data):
    b = data.draw(matrices(rows=a.cols))
    first = a * b
    assert first == rebuilt_terms_product(a, b)
    assert a * b == first  # the second product reads the terms the first one made


@given(matrices(), st.data())
@settings(max_examples=50, deadline=None)
def test_one_right_factor_serves_real_and_gaussian_left_factors(b, data):
    for real in (True, False, True):
        a = data.draw(matrices(real=real, cols=b.rows))
        assert a * b == rebuilt_terms_product(a, b)


def test_products_with_empty_and_zero_factors():
    cases = [
        (Matrix.zero(0, 3), Matrix([[1, 2], [0, 0], ["i", 0]])),
        (Matrix.zero(2, 0), Matrix.zero(0, 3)),
        (Matrix([[1, "i"], [0, 0]]), Matrix.zero(2, 4)),
        (Matrix([[0, 0], [2, "1/2"]]), Matrix([[0, 0], ["i", 3]])),
    ]
    for a, b in cases:
        assert a * b == rebuilt_terms_product(a, b)
    with pytest.raises(ValueError, match="incompatible"):
        Matrix.zero(2, 3) * Matrix.zero(2, 3)


@given(symmetric_matrices())
@settings(deadline=None)
def test_congruence_keeps_the_oracle_signs(a):
    d, _ = _certified(a)
    assert all(not d[i, j] for i in range(a.rows) for j in range(a.cols) if i != j)
    assert [_sign(d[i, i].re) for i in range(a.rows)] == [
        _sign(x) for x in oracle_congruence_diagonal(a.entries())
    ]


@given(sparse_symmetric_matrices())
@settings(deadline=None)
def test_congruence_of_sparse_forms_matches_the_certified_oracle(a):
    d, _ = _certified(a)
    assert [_sign(d[i, i].re) for i in range(a.rows)] == [
        _sign(x) for x in oracle_congruence_diagonal(a.entries())
    ]


@st.composite
def singular_zero_diagonal_forms(draw):
    """A symmetric form with a zero diagonal and one row and column repeated.

    It is singular, and its first pivot can only come from the e_k += e_j
    repair (or it is zero).
    """
    rows = [list(row) for row in draw(symmetric_matrices(zero_diagonal=True)).entries()]
    i = draw(st.integers(0, len(rows) - 1))
    rows = [row + [row[i]] for row in rows]
    rows.append(list(rows[i]))
    return Matrix(rows)


@given(singular_zero_diagonal_forms())
@settings(deadline=None)
def test_congruence_of_singular_forms_matches_the_certified_oracle(a):
    d, _ = _certified(a)
    assert signature(a).zero >= 1
    assert [_sign(d[i, i].re) for i in range(a.rows)] == [
        _sign(x) for x in oracle_congruence_diagonal(a.entries())
    ]


@st.composite
def forms_with_bare_pivot_rows(draw):
    """Symmetric forms in which some pivot rows have nothing right of the pivot.

    There a step rewrites no row.  The kinds: a diagonal form with zero,
    negative and non-integer entries; blocks of 1 to 3 rows along the
    diagonal, so 1x1 ones at the first, last or middle positions, where a
    zero block is a zero row and column that forces a swap and a
    zero-diagonal block forces the e_k += e_j repair; and a form with one
    row whose only entry right of its pivot is in the last column.
    """
    n = draw(st.integers(1, 9))
    sym = [[Fraction(0)] * n for _ in range(n)]
    kind = draw(st.sampled_from(("diagonal", "blocks", "last-column")))
    if kind == "diagonal":
        for i in range(n):
            sym[i][i] = draw(small_rationals)
        return Matrix(sym)
    if kind == "blocks":
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(n - sum(sizes), draw(st.integers(1, 3))))
        start = 0
        for size in sizes:
            block = draw(st.sampled_from(("dense", "zero-diagonal", "zero")))
            for i in range(start, start + size):
                for j in range(i, start + size):
                    if block == "dense" or (block == "zero-diagonal" and i != j):
                        sym[i][j] = sym[j][i] = draw(small_rationals)
            start += size
        return Matrix(sym)
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = draw(small_rationals)
    k = draw(st.integers(0, n - 1))
    for j in range(k + 1, n - 1):
        sym[k][j] = sym[j][k] = Fraction(0)
    if k < n - 1 and not sym[k][n - 1]:
        sym[k][n - 1] = sym[n - 1][k] = Fraction(1)
    return Matrix(sym)


@given(st.one_of(forms_with_bare_pivot_rows(), sparse_symmetric_matrices(), symmetric_matrices()))
@settings(deadline=None)
def test_the_congruence_is_the_lazy_scheme_that_sweeps_every_step(a):
    # a step whose pivot row has nothing right of the pivot rewrites no row:
    # the same D, byte for byte, as the scheme that catches up and sweeps anyway
    d = congruence_diagonalize(a)
    for old in (lazy_congruence_diagonalize(a), certified_congruence_diagonalize(a)[0]):
        assert (d._real, d._dens, d._ints) == (old._real, old._dens, old._ints)


_nonzero_rationals = st.sampled_from(simplest_first(6, 4)[1:])


@st.composite
def diagonal_forms(draw):
    """Diagonal forms of 1 to 9 rows with mixed signs and a den per row.

    The zeros are drawn as a pattern: none, all of them, a leading run, or
    any subset, so the swaps of the general loop meet zeros everywhere.
    """
    n = draw(st.integers(1, 9))
    pattern = draw(st.sampled_from(("none", "all", "leading", "any")))
    if pattern == "none":
        zeros = set()
    elif pattern == "all":
        zeros = set(range(n))
    elif pattern == "leading":
        zeros = set(range(draw(st.integers(1, n))))
    else:
        zeros = {k for k in range(n) if draw(st.booleans())}
    sym = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        if k not in zeros:
            sym[k][k] = draw(_nonzero_rationals)
    return sym


def _same_d_as_the_oracles(a):
    d = congruence_diagonalize(a)
    for old in (lazy_congruence_diagonalize(a), certified_congruence_diagonalize(a)[0]):
        assert (d._real, d._dens, d._ints) == (old._real, old._dens, old._ints)
    return d


@given(diagonal_forms())
@settings(deadline=None)
def test_a_diagonal_form_gives_the_oracles_d(sym):
    # read off the diagonal: the nonzero entries in order, then the zeros
    d = _same_d_as_the_oracles(Matrix(sym))
    n = len(sym)
    nonzero = [sym[k][k] for k in range(n) if sym[k][k]]
    assert [_sign(d[k, k].re) for k in range(n)] == [_sign(x) for x in nonzero] + [0] * (n - len(nonzero))


@given(diagonal_forms(), st.data())
@settings(deadline=None)
def test_a_diagonal_form_with_one_off_diagonal_pair_gives_the_oracles_d(sym, data):
    # one entry off the diagonal, and its mirror: the general loop decides
    n = len(sym)
    if n < 2:
        sym = [[sym[0][0], Fraction(0)], [Fraction(0), Fraction(0)]]
        n = 2
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    sym[i][j] = sym[j][i] = data.draw(_nonzero_rationals)
    _same_d_as_the_oracles(Matrix(sym))


def _sympy(m):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(
        [[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row] for row in m.entries()]
    )


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rank_matches_sympy(m):
    assert m.rank() == _sympy(m).rank()


@given(square_matrices())
@settings(max_examples=40, deadline=None)
def test_det_matches_sympy(m):
    import sympy

    det = sympy.expand(_sympy(m).det())
    assert m.det() == GaussianRational(Fraction(str(sympy.re(det))), Fraction(str(sympy.im(det))))


def _sympy_signature(a):
    """The normalized inertia of a real symmetric matrix, from sympy's characteristic polynomial."""
    sympy = pytest.importorskip("sympy")

    # all roots of the characteristic polynomial are real, so Descartes'
    # rule of signs counts the positive ones exactly
    coeffs = [c for c in sympy.Poly(_sympy(a).charpoly().as_expr()).all_coeffs()]
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c)
    nonzero = [c for c in coeffs if c]
    pos = sum(1 for x, y in zip(nonzero, nonzero[1:]) if x * y < 0)
    neg = a.rows - pos - zero
    return Signature(min(pos, neg), max(pos, neg), zero)


@given(symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_inertia_matches_sympy(a):
    assert signature(a) == _sympy_signature(a)


@given(sparse_symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_inertia_of_sparse_forms_matches_sympy(a):
    assert signature(a) == _sympy_signature(a)


# ---------------------------------------------------------------------------
# chains of operations on the lifted form, materialized only at the end


def _oracle_apply(op, a, b):
    if op == "*":
        return oracle_mul(a, b)
    if op == "+":
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "-":
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "scale":
        return [[b * x for x in row] for row in a]
    if op == "transpose":
        return [list(col) for col in zip(*a)]
    return [[x.conjugate() for x in row] for row in a]  # conjugate


@given(matrices(), st.lists(st.sampled_from(("*", "+", "-", "scale", "transpose", "conjugate")),
                            min_size=1, max_size=6), st.data())
@settings(max_examples=50, deadline=None)
def test_operation_chains_match_the_fraction_oracle(m, ops, data):
    expected = [list(row) for row in m.entries()]
    for op in ops:
        if op == "*":
            other = data.draw(matrices(rows=m.cols))
            m, expected = m * other, _oracle_apply(op, expected, other.entries())
        elif op in ("+", "-"):
            other = data.draw(matrices(rows=m.rows, cols=m.cols))
            m = m + other if op == "+" else m - other
            expected = _oracle_apply(op, expected, other.entries())
        elif op == "scale":
            c = data.draw(gaussians)
            m, expected = m.scale(c), _oracle_apply(op, expected, c)
        else:
            m = m.transpose() if op == "transpose" else m.conjugate()
            expected = _oracle_apply(op, expected, None)
    assert (m.rows, m.cols) == (len(expected), len(expected[0]))
    assert m.entries() == tuple(map(tuple, expected))
    # the lifted form is canonical: rebuilding from the entries gives an equal matrix
    rebuilt = Matrix(expected)
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert m.is_real == all(not x.im for row in expected for x in row)


def _check_against_the_oracle(m):
    red, pivots = m.rref()
    old_red, old_pivots = oracle_rref(m.entries())
    assert pivots == old_pivots
    assert red.entries() == tuple(map(tuple, old_red))
    assert m.rank() == len(old_pivots)
    if m.rows == m.cols:
        assert m.det() == oracle_det(m.entries())


@pytest.mark.parametrize("unit", [ONE, I + 2])
def test_rows_that_vanish_mid_elimination(unit):
    # row 2 is row 0 + row 1, so it vanishes only after the second pivot; the
    # rows around it must keep their order and values
    rows = [
        [1, 1, 0, 2],
        [0, 1, 1, 1],
        [1, 2, 1, 3],
        [0, 0, 1, 5],
    ]
    m = Matrix(rows).scale(unit)
    _check_against_the_oracle(m)
    assert m.rank() == 3 and m.det() == ZERO
    # row 1 is twice row 0 and vanishes after the first pivot
    _check_against_the_oracle(Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).scale(unit))
    # a zero row from the start, between nonzero ones
    _check_against_the_oracle(Matrix([[0, 1, 2], [0, 0, 0], [3, 1, 0]]).scale(unit))


@pytest.mark.parametrize("unit", [ONE, I - 3])
def test_a_skipped_row_is_brought_up_to_date_when_it_becomes_the_pivot(unit):
    # row 1 has no entry in the first pivot column, so the first step leaves
    # it at the old scale; the second pivot then swaps in row 2, which was
    # rewritten, and the third takes row 1
    m = Matrix([[2, 1, 0], [0, 0, 3], [4, 5, 1]]).scale(unit)
    _check_against_the_oracle(m)
    assert m.det() == oracle_det(m.entries()) != ZERO


# ---------------------------------------------------------------------------
# the kernel by forward elimination and back substitution, against the
# Gauss-Jordan kernel it replaced, the Fraction oracle and sympy


@st.composite
def kernel_problems(draw):
    """Matrices of every rank up to 20 columns, wide or tall, with zero rows and columns.

    A product of a rows x r and an r x cols grid has rank r at most, so
    ranks run from 0 (no grid) to full; zeroed columns add free columns and
    zeroed rows rows that elimination drops.  The entries come from a drawn
    ``Random`` with denominators up to 4, so lifted pivots are rarely units.
    """
    real = draw(st.booleans())
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = draw(st.randoms(use_true_random=False))

    def part():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def grid(n, m):
        return [[GaussianRational(part(), Fraction(0) if real else part()) for _ in range(m)] for _ in range(n)]

    out = oracle_mul(grid(rows, rank), grid(rank, cols)) if rank else [[ZERO] * cols for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows // 3))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 3))
    return Matrix(
        [[ZERO if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(out)]
    )


def _same_lifted_form(new: Matrix, old: Matrix) -> None:
    assert (new.rows, new.cols, new.is_real, new._dens, new._ints) == (
        old.rows, old.cols, old.is_real, old._dens, old._ints
    )


@given(st.one_of(kernel_problems(), matrices()))
@settings(max_examples=120, deadline=None)
def test_the_back_substituted_kernel_is_the_gauss_jordan_kernel(m):
    new = kernel(m)
    _same_lifted_form(new, gauss_jordan_kernel(m))
    assert new.entries() == tuple(tuple(v) for v in oracle_kernel(m.entries(), m.cols))
    assert new.rows == m.cols - m.rank()
    if new.rows:
        assert m * new.transpose() == Matrix.zero(m.rows, new.rows)


def _sympy_nullspace(m):
    """The basis of sympy's ``Matrix.nullspace``, from an rref over QQ_I (QQ for a real matrix).

    One vector per free column f, in column order: 1 at f, and minus each
    reduced row's entry in column f at that row's pivot.  Sympy's generic
    ``Matrix`` takes seconds on some 20x20 Gaussian matrices that the
    domain rref reduces in milliseconds.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain = sympy.QQ if m.is_real else sympy.QQ_I
    reduced, pivots = DomainMatrix.from_Matrix(_sympy(m)).convert_to(domain).rref()
    rows = reduced.to_Matrix()
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [sympy.Integer(0)] * m.cols
        v[free] = sympy.Integer(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r, free]
        basis.append(v)
    return basis


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [2, 4, 6]],
        [[0, 0], [0, 0]],
        [[1, 0], [0, 1]],
        [["1/2", "i", 3, 0], [1, "2i", 6, 0], [0, 1, "1-i", 5]],
        [[2, 0, 4], [0, 0, 0], [1, 0, 3], [5, 0, 1]],
        [["i", 1, "2+i"]],
    ],
)
def test_the_domain_nullspace_oracle_is_sympys_nullspace(rows):
    m = Matrix([[gauss(x) for x in row] for row in rows])
    expected = [list(v) for v in _sympy(m).nullspace()]
    assert [[sympy_x.expand() for sympy_x in v] for v in _sympy_nullspace(m)] == expected


@given(kernel_problems())
@settings(max_examples=25, deadline=None)
def test_the_back_substituted_kernel_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    expected = [
        [GaussianRational(Fraction(str(sympy.re(x))), Fraction(str(sympy.im(x)))) for x in v]
        for v in _sympy_nullspace(m)
    ]
    assert kernel(m).entries() == tuple(map(tuple, expected))


@pytest.mark.parametrize("unit", [ONE, I + 2, GaussianRational(Fraction(3, 2), Fraction(-5))])
def test_kernels_with_several_free_columns_and_pivots_of_norm_above_one(unit):
    cases = [
        # three pivots of norm > 1 and four free columns, one of them before the last pivot
        [[3, 6, 0, 1, 2, 5, 7], [0, 0, 5, 2, 0, 1, 1], [0, 0, 0, 0, 7, 3, 2]],
        # tall, with a zero row, a repeated row and a zero column
        [[2, 0, 4], [0, 0, 0], [1, 0, 3], [2, 0, 4], [5, 0, 1]],
        # wide and rank one
        [[2 * k - 9 for k in range(20)], [4 * k - 18 for k in range(20)]],
        [[0, 0, 0]],
    ]
    for rows in cases:
        m = Matrix(rows).scale(unit)
        _same_lifted_form(kernel(m), gauss_jordan_kernel(m))
        assert kernel(m).entries() == tuple(tuple(v) for v in oracle_kernel(m.entries(), m.cols))


# ---------------------------------------------------------------------------
# the kernel cut down system by system, on lifted rows


# nonzero Gaussian integers that the map i -> S sends to zero in F_P, and
# 90^2 + 157^2 = P, so one of 90 + 157i and 90 - 157i goes to zero too
_P, _S = exact._P, exact._S
_VANISHING_MOD_P = {
    True: (_P, -_P, 2 * _P, _P * _P),
    False: ((_P, 0), (0, -_P), (_S, -1), (-_S, 1), (_S * 3, -3), (90, 157), (90, -157)),
}


def _entries(real, density, share):
    """One entry of a system, drawn like ``randint(-4, 4)`` at the given
    density and zero otherwise (a nonzero one with an imaginary part in
    -3..3 unless real), a nonzero entry being a ``_VANISHING_MOD_P`` value
    with probability ``share``.

    Each entry is one index into a tuple of values, zero first, so a
    shrinking index shrinks the entry toward zero.
    """
    plain = [x for a in range(1, 5) for x in (a, -a)]
    if not real:
        plain = [(x, y) for x in plain for y in (0, 1, -1, 2, -2, 3, -3)]
    vanishing = list(_VANISHING_MOD_P[real])
    nonzero = plain * round(10 * (1 - share)) + vanishing * round(10 * share * len(plain) / len(vanishing))
    # randint(-4, 4) is nonzero with probability 8/9
    zeros = round(len(nonzero) * (9 / (8 * density) - 1))
    return st.sampled_from([0 if real else (0, 0)] * zeros + nonzero)


@st.composite
def _flat_systems(draw, real, k):
    """Up to 4 systems of 1 to k + 2 rows of k Gaussian integers, each read flat, some zero.

    Some systems have entries that vanish modulo the prime of
    ``exact._rank_mod_p``, some only such entries, where it can miss a
    full rank.  Each system draws its own density, so dense pivot rows meet
    sparse rows whose zeros they fill in.  Every entry is its own small
    draw, and systems and rows are lists that the shrinker can cut, so a
    failing example shrinks quickly.
    """

    @st.composite
    def system(draw):
        if not draw(st.integers(0, 4)):  # one system in five is zero
            entry = st.just(0 if real else (0, 0))
        else:
            density = draw(st.sampled_from((0.3, 0.7, 1.0)))
            entry = _entries(real, density, draw(st.sampled_from((0, 0.3, 1))))
        rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=k + 2))
        return [x for row in rows for x in row]

    return draw(st.lists(system(), max_size=4))


@st.composite
def cut_problems(draw):
    real = draw(st.booleans())
    k = draw(st.integers(1, 9))
    return real, k, draw(_flat_systems(real, k))


def _as_matrix(real, rows, cols):
    return Matrix._lifted(real, (1,) * len(rows), [tuple(row) for row in rows], cols)


@given(cut_problems())
@settings(max_examples=120, deadline=None)
def test_the_cut_kernel_spans_the_kernel_of_the_stacked_systems(problem):
    real, k, systems = problem
    keep = _common_kernel(systems, k, real)
    nonzero = [flat for flat in systems if any(flat if real else (x for pair in flat for x in pair))]
    if not nonzero:
        assert keep is None
        return
    stacked = _as_matrix(real, [flat[i : i + k] for flat in nonzero for i in range(0, len(flat), k)], k)
    expected = kernel(stacked)
    if not expected.rows:
        assert keep == []
        return
    got = _as_matrix(real, keep, k)
    assert got.rank() == got.rows == expected.rows
    assert got.rref()[0] == expected.rref()[0]
    for row in keep:  # each row is divided by its content
        parts = row if real else [x for pair in row for x in pair]
        assert gcd(*parts) == 1


# ---------------------------------------------------------------------------
# the rank test modulo P: a yes is a proof of full rank, a no proves nothing


def _rank_mod_p(systems, ncols, real):
    """``exact._rank_mod_p`` of the systems' residues."""
    return exact._rank_mod_p((exact._residues(flat, real) for flat in systems), ncols)


def test_the_modulus_is_a_prime_one_mod_four_and_s_a_root_of_minus_one():
    assert _P > 2 and all(_P % d for d in range(2, isqrt(_P) + 1))
    assert _P % 4 == 1
    assert (_S * _S + 1) % _P == 0
    assert (_P - 1) ** 2 < 2**30  # a product of two residues is one CPython digit


def test_a_singular_gaussian_matrix_is_not_certified():
    # [[1, i], [i, -1]] has rank 1 over Q(i); under a wrong root of -1 it has rank 2 mod P
    rows = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]
    assert _as_matrix(False, rows, 2).rank() == 1
    assert _rank_mod_p([[x for row in rows for x in row]], 2, False) == 1
    keep = _common_kernel(rows, 2, False)  # one system per row
    assert keep and _as_matrix(False, keep, 2).rref()[0] == kernel(Matrix([[1, I], [I, -1]])).rref()[0]


@pytest.mark.parametrize(
    "real, rows",
    [
        (True, [[_P]]),
        (False, [[(_S, -1)]]),  # S - i goes to S - S
        (False, [[(90, 157), (1, 0)], [(0, 0), (90, -157)]]),  # det (90 + 157i)(90 - 157i) = P
    ],
)
def test_a_full_rank_matrix_singular_mod_p_is_left_to_the_exact_cut(real, rows):
    n = len(rows)
    assert 90**2 + 157**2 == _P
    assert _as_matrix(real, rows, n).rank() == n
    assert _rank_mod_p([[x for row in rows for x in row]], n, real) < n
    systems = [*rows, rows[0]]  # one system per row, the first repeated
    assert _common_kernel(systems, n, real) == []


@st.composite
def stacks_with_multiples_of_p(draw):
    """(real, ncols, rows): Gaussian-integer rows, some entries multiples of P or zero mod P."""
    real = draw(st.booleans())
    ncols = draw(st.integers(1, 5))
    part = st.one_of(st.integers(-3, 3), st.sampled_from((_P, -_P, 2 * _P, 3 * _P + 1)))
    entry = part if real else st.one_of(st.tuples(part, part), st.sampled_from(_VANISHING_MOD_P[False]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=ncols + 3))
    return real, ncols, rows


@given(stacks_with_multiples_of_p())
@settings(max_examples=200, deadline=None)
def test_a_certified_stack_has_full_rank_over_q_i(problem):
    real, ncols, rows = problem
    rank = _as_matrix(real, rows, ncols).rank() if rows else 0
    found = _rank_mod_p(rows, ncols, real)  # one system per row
    assert found <= rank  # the rank over F_P is a lower bound
    if found == ncols:
        assert rank == ncols


@given(cut_problems())
@settings(max_examples=120, deadline=None)
def test_the_rank_test_reduces_only_where_the_pivot_row_is_nonzero(problem):
    # the reference rebuilds the whole row tail at each reduction
    real, k, systems = problem
    assert _rank_mod_p(systems, k, real) == dense_rank_mod_p(systems, k, real)


# ---------------------------------------------------------------------------
# the Kronecker product, reindexing and the trace, against the same oracle


def oracle_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@given(matrices(), matrices())
@settings(max_examples=50, deadline=None)
def test_kron_matches_the_fraction_oracle(a, b):
    k = a.kron(b)
    assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    assert k.entries() == tuple(map(tuple, oracle_kron(a.entries(), b.entries())))
    assert k == Matrix(oracle_kron(a.entries(), b.entries()))


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_reindex_matches_the_fraction_oracle(m, data):
    # permutations, or any rows and columns, repeated or left out, in any order
    if data.draw(st.booleans()):
        rows = data.draw(st.permutations(range(m.rows)))
        cols = data.draw(st.permutations(range(m.cols)))
    else:
        rows = data.draw(st.lists(st.integers(0, m.rows - 1), min_size=1, max_size=6))
        cols = data.draw(st.lists(st.integers(0, m.cols - 1), min_size=1, max_size=6))
    expected = [[m.entries()[i][j] for j in cols] for i in rows]
    out = m.reindex(rows, cols)
    assert out.entries() == tuple(map(tuple, expected))
    assert out == Matrix(expected) and out.is_real == Matrix(expected).is_real


def _reindex_by_lifting(m, rows, cols):
    """reindex through the canonicalizing constructor, the path for any rows and columns."""
    out = [[m._ints[i][j] for j in cols] for i in rows]
    return Matrix._lifted(m._real, [m._dens[i] for i in rows], out, len(cols))


@contextmanager
def _counting_canonical():
    """The list of the calls of ``exact._canonical`` made inside the block."""
    calls, canonical = [], exact._canonical
    exact._canonical = lambda *args: calls.append(args) or canonical(*args)
    try:
        yield calls
    finally:
        exact._canonical = canonical


@given(matrices(), st.data())
@settings(max_examples=80, deadline=None)
def test_reindex_by_a_column_permutation_skips_the_canonical_pass(m, data):
    rows = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=6))
    cols = data.draw(st.one_of(st.just(list(range(m.cols))), st.permutations(range(m.cols))))
    expected = _reindex_by_lifting(m, rows, cols)
    with _counting_canonical() as calls:
        out = m.reindex(rows, cols)
    assert calls == []
    _same_lifted_form(out, expected)


def test_reindex_keeps_the_realness_of_the_chosen_rows():
    m = Matrix([["1/2", 3, 0], ["i", 1, "2/3"], [5, 0, "1/4"], ["1-i", 0, 0]])
    for rows, cols, real in [
        ((0, 2), (2, 0, 1), True),  # the kept rows of a Gaussian matrix are all real
        ((2, 1, 0), (1, 2, 0), False),
        ((3, 3), (0, 1, 2), False),
        ((), (2, 1, 0), True),
    ]:
        expected = _reindex_by_lifting(m, rows, cols)
        with _counting_canonical() as calls:
            out = m.reindex(rows, cols)
        assert calls == [] and out.is_real is real
        _same_lifted_form(out, expected)
        assert out.entries() == tuple(tuple(m.entries()[i][j] for j in cols) for i in rows)
    real = Matrix([[1, "2/3"], ["5/2", 0], [0, 0]])
    _same_lifted_form(real.reindex((2, 0, 0), (1, 0)), _reindex_by_lifting(real, (2, 0, 0), (1, 0)))
    # a column subset may share a factor with the den: it still goes through the pass
    with _counting_canonical() as calls:
        assert real.reindex((0,), (1,)) == Matrix([["2/3"]])
    assert calls


# ---------------------------------------------------------------------------
# the lifted form of given entries, against the entry-by-entry oracle


@pytest.mark.parametrize(
    "rows",
    [
        [[1, -2, 0], [7, 0, 3]],
        [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(4), Fraction(0)]],
        [[GaussianRational(Fraction(1, 2), Fraction(-1, 3)), I], [ONE, ZERO]],
        [[1, Fraction(3, 4), "1/2-i"], [I, -5, GaussianRational(Fraction(2))]],
        [[0, 0, 0], [0, 0, 0]],
        [[Fraction(0), ZERO, 0]],
        [[True, 2], [3, 4]],
        [],
    ],
    ids=["int", "fraction", "gaussian", "mixed", "zero-int", "zero-mixed", "bool", "empty"],
)
def test_lift_matches_the_entrywise_oracle(rows):
    # repr also tells an int from a bool
    assert repr(_lift(rows)) == repr(lift(rows))


@given(st.lists(st.lists(st.integers(-10**30, 10**30), min_size=3, max_size=3), max_size=4))
@settings(max_examples=50, deadline=None)
def test_lift_of_int_rows_is_canonical_over_one(rows):
    real, dens, ints = _lift(rows)
    assert (real, dens, ints) == lift(rows)
    assert all(type(x) is int for row in ints for x in row)
    assert Matrix(rows).entries() == Matrix([[Fraction(x) for x in row] for row in rows]).entries()


# ---------------------------------------------------------------------------
# the images D^T A + A D of symmetric matrices


def _images_by_products(vecs, d):
    """upper(D^T A + A D) of each row, one Matrix product, transpose and sum per row."""
    symmetric = [Matrix.symmetric(vecs.row(r)) for r in range(vecs.rows)]
    return Matrix.stack((d.transpose() * a + a * d).upper() for a in symmetric)


@st.composite
def tangent_problems(draw):
    """(vecs, D): n = 3, 6 or 9, each real or not, sparse or dense, with zero rows.

    The entries come from a drawn ``Random``: drawing a 9x9 and a 4x45
    matrix entry by entry would take most of the test's time.
    """
    n = draw(st.sampled_from((3, 6, 9)))
    rng = draw(st.randoms(use_true_random=False))

    def grid(rows, cols):
        real, density = draw(st.booleans()), draw(st.sampled_from((0.2, 0.6, 1.0)))
        zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))

        def part():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        def entry():
            if rng.random() > density:
                return ZERO
            return GaussianRational(part(), Fraction(0) if real else part())

        return Matrix(
            [[ZERO if i in zero_rows else entry() for _ in range(cols)] for i in range(rows)]
        )

    return grid(draw(st.integers(1, 4)), n * (n + 1) // 2), grid(n, n)


@given(tangent_problems())
@settings(max_examples=60, deadline=None)
def test_symmetric_images_match_the_matrix_products(problem):
    vecs, d = problem
    assert symmetric_images(vecs, d) == _images_by_products(vecs, d) == term_symmetric_images(vecs, d)


def _sympy_parts(m):
    """The real and imaginary parts of a matrix as rational sympy matrices."""
    sympy = pytest.importorskip("sympy")
    entries = m.entries()
    return tuple(
        sympy.Matrix([[sympy.Rational(getattr(x, part)) for x in row] for row in entries])
        for part in ("re", "im")
    )


@given(tangent_problems())
@settings(max_examples=20, deadline=None)
def test_symmetric_images_match_sympy(problem):
    vecs, d = problem
    dr, di = _sympy_parts(d)
    out_re, out_im = _sympy_parts(symmetric_images(vecs, d))
    n = d.rows
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for r in range(vecs.rows):
        ar, ai = _sympy_parts(Matrix.symmetric(vecs.row(r)))
        # (Dr + i Di)^T (Ar + i Ai) + (Ar + i Ai)(Dr + i Di), split into parts
        re = dr.T * ar - di.T * ai + ar * dr - ai * di
        im = dr.T * ai + di.T * ar + ar * di + ai * dr
        assert [re[i, j] for i, j in upper] == list(out_re.row(r))
        assert [im[i, j] for i, j in upper] == list(out_im.row(r))


@pytest.mark.parametrize("n", (3, 6, 9))
@pytest.mark.parametrize("real", (True, False), ids=("real", "complex"))
def test_symmetric_images_of_zero_rows_and_a_zero_tangent(n, real):
    m = n * (n + 1) // 2
    c = ONE if real else GaussianRational(Fraction(1, 2), Fraction(-3))
    d = Matrix([[c * (i - 2 * j) if (i + j) % 3 else ZERO for j in range(n)] for i in range(n)])
    vecs = Matrix([[ZERO] * m, [c * (k % 4 - 1) for k in range(m)], [ZERO] * m])
    out = symmetric_images(vecs, d)
    assert out == _images_by_products(vecs, d) == term_symmetric_images(vecs, d)
    assert not any(out.entries()[0]) and not any(out.entries()[2]) and any(out.entries()[1])
    zero = Matrix.zero(n, n)
    assert symmetric_images(vecs, zero) == term_symmetric_images(vecs, zero) == Matrix.zero(3, m)


def test_symmetric_images_check_the_shapes():
    with pytest.raises(ValueError):
        symmetric_images(Matrix.zero(1, 6), Matrix.zero(2, 2))
    with pytest.raises(ValueError):
        symmetric_images(Matrix.zero(1, 6), Matrix.zero(3, 2))


# ---------------------------------------------------------------------------
# the Bareiss row updates skip zero entries; the dense updates are the oracle

_ZERO_RUNS = ("both", "lead", "row", "neither")


@st.composite
def combine_problems(draw, real):
    """(p, row, f, lead, q, start) with runs where both entries, the lead or the row are zero.

    Any ints will do, q nonzero: the skips must agree with the dense update
    even where the division is not exact.
    """
    n = draw(st.integers(1, 12))
    ints = st.integers(-50, 50)
    nonzero = ints.filter(bool)
    if real:
        num, unit, zero = ints, nonzero, 0
    else:
        num = st.tuples(ints, ints)
        unit = num.filter(lambda z: z != (0, 0))
        zero = (0, 0)
    if draw(st.booleans()):
        row, lead = [zero] * n, [draw(unit) for _ in range(n)]  # an all-zero row
    else:
        row, lead = [], []
        kind = draw(st.sampled_from(_ZERO_RUNS))
        for _ in range(n):
            if draw(st.integers(0, 3)) == 0:  # runs: mostly keep the last kind
                kind = draw(st.sampled_from(_ZERO_RUNS))
            row.append(zero if kind in ("both", "row") else draw(unit))
            lead.append(zero if kind in ("both", "lead") else draw(unit))
    p, q = draw(unit), draw(unit)
    f = draw(st.one_of(st.just(zero), unit))
    if draw(st.booleans()):
        q = p  # the no-op when f is zero
    return p, row, f, lead, q, draw(st.integers(0, n))


@given(combine_problems(real=True))
@settings(max_examples=200, deadline=None)
def test_the_integer_row_update_matches_the_dense_update(problem):
    assert _combine_z(*problem) == dense_combine_z(*problem)


@given(combine_problems(real=False))
@settings(max_examples=200, deadline=None)
def test_the_gaussian_row_update_matches_the_dense_update(problem):
    assert _combine_zi(*problem) == dense_combine_zi(*problem)


@given(matrices(), st.data())
@settings(max_examples=30, deadline=None)
def test_reshape_refills_the_entries_row_by_row(m, data):
    flat = [x for row in m.entries() for x in row]
    size = len(flat)
    rows = data.draw(st.sampled_from([r for r in range(1, size + 1) if size % r == 0]))
    cols = size // rows
    out = m.reshape(rows, cols)
    assert out == Matrix([flat[i * cols : (i + 1) * cols] for i in range(rows)])
    assert out.reshape(m.rows, m.cols) == m
    with pytest.raises(ValueError):
        m.reshape(rows + 1, cols)


def _canonical_row(m, i):
    """Row i of m through the canonicalizing constructor."""
    return Matrix._lifted(m._real, m._dens[i : i + 1], m._ints[i : i + 1], m.cols)


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_a_row_matches_the_canonicalized_row(m):
    for i in range(m.rows):
        row = m.row(i)
        assert row == _canonical_row(m, i) == Matrix([m.entries()[i]])
        assert hash(row) == hash(_canonical_row(m, i))
        assert row.is_real == all(not x.im for x in m.entries()[i])


def test_a_real_row_of_a_complex_matrix_is_real():
    m = Matrix([["1/2", "3/4", 0], ["i", 1, "2/3"], [0, 0, 0]])
    assert not m.is_real
    for i, real in enumerate((True, False, True)):
        row = m.row(i)
        assert row == _canonical_row(m, i) == Matrix([m.entries()[i]])
        assert hash(row) == hash(_canonical_row(m, i))
        assert (row.is_real, row._dens, row.entries()) == (real, _canonical_row(m, i)._dens, m.entries()[i:i + 1])
    assert (m.row(0)._dens, m.row(0)._ints) == ((4,), ((2, 3, 0),))
    assert (m.row(2)._dens, m.row(2)._ints) == ((1,), ((0, 0, 0),))


@given(matrices())
@settings(max_examples=30, deadline=None)
def test_nonzero_columns_are_the_columns_with_an_entry(m):
    expected = tuple(j for j in range(m.cols) if any(row[j] for row in m.entries()))
    assert m.nonzero_columns() == expected


def test_a_zero_matrix_without_rows_keeps_its_columns():
    z = Matrix.zero(0, 45)
    assert (z.rows, z.cols, z.entries()) == (0, 45, ())
    assert z.nonzero_columns() == ()
    assert Matrix.zero(2, 3) == Matrix([[0, 0, 0], [0, 0, 0]])
