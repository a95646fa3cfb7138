"""Reference implementations that only the tests read.

Each one is the slow, direct version of something the package computes
another way, or an input catalog the tests iterate over:

    simplest_first                       every rational of bounded height and
                                         denominator, simplest first: the value
                                         space the tests' Hypothesis strategies
                                         sample small fractions from
    lift                                 the lifted form of a matrix, entry by entry
    two_pass_rref                        the reduced row echelon form whose tail
                                         divides by the pivots and then makes the
                                         rows canonical, two passes over every entry
    gauss_jordan_kernel                  the null space read off the reduced row
                                         echelon form of Gauss-Jordan elimination
    column_kernel, column_solve,         null spaces and solutions as one-column
    column_vector                        matrices, one lift per vector
    term_symmetric_images                the images upper(D^T A + A D) accumulated
                                         term by term, without the product
    elimination_solve                    x*m = rhs read off its own elimination of
                                         [m; rhs]^T, not off the kernel
    rebuilt_terms_product                the product with the right factor's nonzero
                                         terms listed again on every call, and
                                         every entry of a Gaussian right factor read
    certified_congruence_diagonalize     the congruence that also builds P with
                                         P^T A P = D, its certificate
    lazy_congruence_diagonalize          the congruence that catches up and sweeps
                                         below every pivot row, even one with
                                         nothing right of its pivot
    oracle_congruence_diagonal           the diagonal of the rational symmetric
                                         elimination, in Fraction arithmetic
    kernel_witness_errors                what is wrong with a kernel basis K of M,
                                         checked in (re, im) Fraction pairs: M K^T,
                                         K at the free columns, and rows(K) against
                                         cols - rank(M)
    QuadExt, spindle_point, horn_point   exact cyclide model points over
                                         Q(i, sqrt 2), the reference for the
                                         integer points of the stereographic check
    pair_form                            a form sum c * y_a y_b, each term added
                                         into an n x n list of entries
    cofactor_adjugate_form               tr(A adj Y) on the Veronese coordinates, each
                                         cofactor a signed 2x2 minor of Y
    combination_witnesses                the signatures of the combinations of the
                                         Veronese generators with small coefficients,
                                         one congruence each
    toric_forms, checked_rows            the binomial forms of a toric surface, one
                                         pair_form each, and the stack of the
                                         forms' upper triangles with its rank
                                         checked: a span built from its forms
    entrywise_forms, loop_real_basis     the forms of coefficient rows filled entry
                                         by entry, and the fixed forms of sigma_i
                                         made one combination at a time
    combination_family_form_x            a family member's real form as the combination
                                         of the span of the moved generators: one
                                         product, then ``Matrix.symmetric``
    solve_coordinates_of                 the coordinates of a form in a span, by one
                                         solve of the whole coefficient system
    kron_sym2, product_rule_d_rep        sym2 as the folded Kronecker square, and
                                         d_rep by the product rule on every call
    entrywise_traceless                  the trace of a 2x2 matrix read off its
                                         Gaussian-rational entries
    coordinates                          the FULL_BASIS coefficients of an element
                                         read off its Gaussian-rational entries
    shear_product_congruence             verify's random congruence as a product of
                                         shear matrices
    evaluate, eval_lift                  a quadratic form at a point, and the
                                         bidegree-(2,2) lift of a torus point
    evaluation_nullity                   the dimension of the degree-2 ideal of a
                                         monomial parametrization, as the nullity
                                         of its quadratic monomials at seeded
                                         random torus points
    EXCEPTIONAL                          the exceptional classes e1..e4
    Subalgebra, subalgebra_catalog       the classified subalgebras of sl2+sl2
    dense_combine_z, dense_combine_zi    the Bareiss row updates over every entry,
                                         zero or not
    single_table_solve_invariant         the invariant-form solver on one ActionTable
                                         of the whole span, without isotypic pieces
    matrix_step_solve_invariant          the invariant-form solver on the pieces with
                                         a Matrix and a Gauss-Jordan kernel per step
    lifted_solve_invariant               the invariant-form solver on the pieces by
                                         the exact path alone, with no dimension
                                         bound modulo a prime and no known forms
    dense_rank_mod_p                     the rank modulo a prime, each reduction
                                         rebuilding the whole row tail
    mod_p_dimension_bound                the upper bound on an invariant-form answer
                                         that decided one-element solves before their
                                         Jordan type did: each piece's size less the
                                         rank modulo a prime of its stacked systems
    bracket_terms, generated_rank_mod_p  the structure constants of FULL_BASIS, and
                                         the rank over F_P of the subalgebra the
                                         residues of coordinate rows generate,
                                         closed under the bracket: the test that
                                         decided whether elements generate all of
                                         sl2+sl2 before Goursat's lemma did
    coefficient_row_solve_invariant      the invariant-form solver on the coefficient
                                         rows of the span: one kernel of the
                                         transposed images per tangent
    per_form_solve_invariant,            the invariant-form solver and the span
    per_form_span_stabilizer             stabilizer with one product, transpose
                                         and upper triangle per basis form, on
                                         the column kernel
    ROTATION_GENERATORS                  the rotation generator of each real structure
    linear_equivalent, affine_equivalent lattice types joined by a bounded search over
                                         matrices, without and with translations
    node_surface_points                  the sample grid one node at a time, each
                                         term of a point computed at its node
    loop_sample                          the sample loop point by point: ``residual``
                                         on the sparse forms, then each projection
                                         row folded left, without the kernel
    fstring_write_csv, fstring_write_ply the cloud writers with one f-string write
                                         per point
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from celestial.exact import GaussianRational, I, Matrix, ONE, ZERO, _ratios, gauss
from celestial.exact import kernel, solve, symmetric_images
from celestial.exact import _canonical, _combine_z, _drop, _eliminate, _pairs, _scaled
from celestial.exact import _P, _S, _common_kernel, _residues, _take_mod_p
from celestial.exact import _require_real_symmetric, signature
from celestial.forms import FamilyCoeffs, family_basis, random_fraction
from celestial.geometry import NSClass, VERONESE_MONOMIALS, veronese_data
from celestial.lattice import IntMatrix, LatticeType, _mat_mul
from celestial.liealg import (
    E,
    FULL_BASIS,
    LieElement,
    Q1,
    Q2,
    S1,
    S2,
    T1,
    T2,
    _coordinate_rows,
    bracket,
    d_rep,
)
from celestial.sampling import (
    _TAN_CUTOFF as TAN_CUTOFF,
    PointCloud,
    default_projection,
    residual,
    sparse_forms,
    surface_quadrics,
)
from celestial.segre import (
    DEGREE2_MONOMIALS_2VARS,
    FormSpan,
    QuadraticForm,
    _on_degree2,
    _sum_fibers,
    apply_sigma,
    monomial_rep_derivative,
    mu_transform,
    y_order,
)

# ---------------------------------------------------------------------------
# small rationals to sample from


def simplest_first(bound: int, max_den: int) -> tuple[Fraction, ...]:
    """Every x = p/q in lowest terms with q <= max_den and |x| <= bound, simplest first.

    This is the value space of ``st.fractions(-bound, bound, max_denominator=max_den)``.
    Sampled from, each value is one integer draw, its index: far cheaper than
    ``st.fractions``.  The order (denominator, then |numerator|, then sign)
    makes an index that shrinks toward 0 shrink x toward 0, 1, -1, 2, ...
    """
    values = {Fraction(p, q) for q in range(1, max_den + 1) for p in range(-bound * q, bound * q + 1)}
    return tuple(sorted(values, key=lambda x: (x.denominator, abs(x.numerator), x < 0)))


# ---------------------------------------------------------------------------
# the lifted form


def lift(rows):
    """(real, dens, ints) of ``exact._lift``, through the (re, im) ratios of every entry."""
    parts = [[_ratios(x) for x in row] for row in rows]
    real = not any(n for row in parts for _, (n, _) in row)
    dens, out = [], []
    for row in parts:
        if real:
            den = lcm(*[d for (_, d), _ in row])
            out.append(tuple(n * (den // d) for (n, d), _ in row))
        else:
            den = lcm(*[d for entry in row for _, d in entry])
            out.append(tuple((a * (den // b), c * (den // d)) for (a, b), (c, d) in row))
        dens.append(den)
    return real, tuple(dens), tuple(out)


# ---------------------------------------------------------------------------
# the reduced row echelon form with a two-pass tail


def _over(real: bool, rows, dens):
    """(int dens, rows) of rows[i] / dens[i] for nonzero Gaussian integers dens[i], every entry."""
    if real:
        return list(dens), rows
    out_dens, out_rows = [], []
    for (pr, pi), row in zip(dens, rows):  # x / p = x * conj(p) / |p|^2
        out_dens.append(pr * pr + pi * pi)
        out_rows.append([(xr * pr + xi * pi, xi * pr - xr * pi) for xr, xi in row])
    return out_dens, out_rows


def two_pass_rref(m: Matrix):
    """``Matrix.rref`` with the tail in two passes over every entry, zeros included.

    The Gauss-Jordan rows over their pivots go to int dens (``_over``), and
    then to the canonical form (``_canonical``), each pass visiting every
    entry of every row.
    """
    rows, levels, pivots, _, _ = _eliminate(m._ints, m.cols, m.is_real, reduce=True)
    dens, rows = _over(m.is_real, rows, levels)
    zero = 0 if m.is_real else (0, 0)
    rows += [[zero] * m.cols] * (m.rows - len(pivots))
    dens += [1] * (m.rows - len(pivots))
    return Matrix._make(*_canonical(m.is_real, dens, rows), m.cols), tuple(pivots)


# ---------------------------------------------------------------------------
# the null space by Gauss-Jordan elimination


def gauss_jordan_kernel(m: Matrix) -> Matrix:
    """The kernel basis of ``exact.kernel``, read off the reduced row echelon form.

    Gauss-Jordan elimination clears the rows above each pivot too, so each
    pivot row over its q is a row of the reduced form: row k of the basis is
    1 at the k-th free column, 0 at the other free ones, and minus that
    column of the reduced form at the pivots.
    """
    real = m.is_real
    rows, levels, pivots, _, _ = _eliminate(m._ints, m.cols, real, reduce=True)
    dens, rows = _over(real, rows, levels)
    den = lcm(*dens)
    rows = [_scaled(row, den // d, real) for d, row in zip(dens, rows)]
    zero, one = (0, den) if real else ((0, 0), (den, 0))
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [zero] * m.cols
        v[f] = one
        for row, p in zip(rows, pivots):
            v[p] = -row[f] if real else (-row[f][0], -row[f][1])
        basis.append(v)
    return Matrix._lifted(real, [den] * len(basis), basis, m.cols)


# ---------------------------------------------------------------------------
# the Bareiss row updates without the zero skips


def dense_combine_z(p, row, f, lead, q, start):
    """(p*row - f*lead) / q from column ``start`` on, over Z, entry by entry."""
    if not f:
        if p == q:
            return row
        return row[:start] + [p * a // q for a in row[start:]]
    return row[:start] + [(p * a - f * b) // q for a, b in zip(row[start:], lead[start:])]


def dense_combine_zi(p, row, f, lead, q, start):
    """(p*row - f*lead) / q from column ``start`` on, over Z[i], entry by entry."""
    if p == q and f == (0, 0):
        return row
    pr, pi = p
    fr, fi = f
    qr, qi = q
    n = qr * qr + qi * qi
    out = row[:start]
    for (ar, ai), (br, bi) in zip(row[start:], lead[start:]):
        xr = pr * ar - pi * ai - fr * br + fi * bi
        xi = pr * ai + pi * ar - fr * bi - fi * br
        out.append(((xr * qr + xi * qi) // n, (xi * qr - xr * qi) // n))
    return out


# ---------------------------------------------------------------------------
# null spaces and solutions as columns


def _column(real: bool, values, dens) -> Matrix:
    """The column vector values[i] / dens[i], for nonzero Gaussian integers dens[i]."""
    dens, rows = _over(real, [[x] for x in values], dens)
    return Matrix._lifted(real, dens, rows, 1)


def column_vector(v: Matrix) -> tuple:
    """The entries of a one-column matrix."""
    if v.cols != 1:
        raise ValueError("not a column vector")
    return tuple(row[0] for row in v.entries())


def column_kernel(m: Matrix) -> list[Matrix]:
    """Exact basis of the right null space {v : m*v = 0}, as column vectors."""
    real = m._real
    zero, one = (0, 1) if real else ((0, 0), (1, 0))
    rows, levels, pivots, _, _ = _eliminate(m._ints, m.cols, real, reduce=True)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v, dens = [zero] * m.cols, [one] * m.cols
        v[f] = one
        for row, q, p in zip(rows, levels, pivots):
            v[p] = -row[f] if real else (-row[f][0], -row[f][1])
            dens[p] = q
        basis.append(_column(real, v, dens))
    return basis


def column_solve(m: Matrix, rhs: Matrix):
    """One exact solution of m*x = rhs (column), or None if inconsistent."""
    if (rhs.rows, rhs.cols) != (m.rows, 1):
        raise ValueError("right-hand side must be one column as tall as the matrix")
    real = m._real and rhs._real
    a = m._ints if real or not m._real else _pairs(m._ints)
    b = rhs._ints if real or not rhs._real else _pairs(rhs._ints)
    aug = []
    for da, ra, db, rb in zip(m._dens, a, rhs._dens, b):
        d = lcm(da, db)
        aug.append([*_scaled(ra, d // da, real), *_scaled(rb, d // db, real)])
    rows, levels, pivots, _, _ = _eliminate(aug, m.cols + 1, real, reduce=True)
    if m.cols in pivots:
        return None
    zero, one = (0, 1) if real else ((0, 0), (1, 0))
    x, dens = [zero] * m.cols, [one] * m.cols
    for row, q, p in zip(rows, levels, pivots):
        x[p], dens[p] = row[m.cols], q
    return _column(real, x, dens)


# ---------------------------------------------------------------------------
# the exact core's own loops, before it read them off the shared product and kernel


def term_symmetric_images(vecs: Matrix, d: Matrix) -> Matrix:
    """upper(D^T A + A D) for each row of ``vecs``, accumulated term by term.

    Each upper-triangle position of A sends each nonzero entry of two rows of
    D to one position of the image, doubled on the diagonal; each row of
    ``vecs`` is one pass over its nonzero lifted Gaussian integers, over its
    den times the common den of D.
    """
    n, m = d.rows, vecs.cols
    if d.cols != n or m != n * (n + 1) // 2:
        raise ValueError("shape mismatch")
    index = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i, n):
            index[i][j] = index[j][i] = pos
            pos += 1
    dm, dden = d._common()
    drows = [
        [(j, x) for j, x in enumerate(row) if x != (0, 0)]
        for row in (_pairs(dm) if d._real else dm)
    ]
    terms = []  # per position of A: (image position, re, im) of each term
    for p in range(n):
        for q in range(p, n):
            ts = []
            for r, s in ((p, q), (q, p)) if p != q else ((p, p),):
                for j, (xr, xi) in drows[s]:
                    f = 2 if r == j else 1
                    ts.append((index[r][j], f * xr, f * xi))
            terms.append(ts)
    real = vecs._real and d._real
    out = []
    if real:
        for row in vecs._ints:
            acc = [0] * m
            for a, ts in zip(row, terms):
                if a:
                    for t, x, _ in ts:
                        acc[t] += a * x
            out.append(acc)
    else:
        for row in _pairs(vecs._ints) if vecs._real else vecs._ints:
            acc_re, acc_im = [0] * m, [0] * m
            for (ar, ai), ts in zip(row, terms):
                if ai:
                    for t, xr, xi in ts:
                        acc_re[t] += ar * xr - ai * xi
                        acc_im[t] += ar * xi + ai * xr
                elif ar:
                    for t, xr, xi in ts:
                        acc_re[t] += ar * xr
                        acc_im[t] += ar * xi
            out.append(list(zip(acc_re, acc_im)))
    return Matrix._lifted(real, [den * dden for den in vecs._dens], out, m)


def _rebuilt_times_int(rows, b, ncols: int, real_rows: bool):
    """rows * b for an int matrix b, listing b's nonzero terms again on every call."""
    terms = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    out = []
    if real_rows:
        for row in rows:
            acc = [0] * ncols
            for x, ts in zip(row, terms):
                if x:
                    for j, y in ts:
                        acc[j] += x * y
            out.append(acc)
        return out
    for row in rows:
        sr = [0] * ncols
        si = [0] * ncols
        for (xr, xi), ts in zip(row, terms):
            if xi:
                for j, y in ts:
                    sr[j] += xr * y
                    si[j] += xi * y
            elif xr:
                for j, y in ts:
                    sr[j] += xr * y
        out.append(list(zip(sr, si)))
    return out


def _dense_gauss_row_product(row, b, ncols: int, real_row: bool):
    """row * b for Gaussian-integer pairs b, over every entry of b, zero or not."""
    sr = [0] * ncols
    si = [0] * ncols
    for x, brow in zip(row, b):
        xr, xi = (x, 0) if real_row else x
        if xi:
            for j, (yr, yi) in enumerate(brow):
                sr[j] += xr * yr - xi * yi
                si[j] += xr * yi + xi * yr
        elif xr:
            for j, (yr, yi) in enumerate(brow):
                sr[j] += xr * yr
                si[j] += xr * yi
    return list(zip(sr, si))


def rebuilt_terms_product(a: Matrix, b: Matrix) -> Matrix:
    """a * b from b's rows over their common den, rebuilt for this one product."""
    if a.cols != b.rows:
        raise ValueError("incompatible shapes for product")
    rows, db = b._common()
    if b._real:
        out = _rebuilt_times_int(a._ints, rows, b.cols, a._real)
    else:
        out = [_dense_gauss_row_product(row, rows, b.cols, a._real) for row in a._ints]
    return Matrix._lifted(a._real and b._real, [d * db for d in a._dens], out, b.cols)


def elimination_solve(m: Matrix, rhs: Matrix):
    """One exact solution x of x*m = rhs (one row) as a tuple, or None if inconsistent.

    Read off the pivot rows of the eliminated [m; rhs]^T; the free unknowns are 0.
    """
    if (rhs.rows, rhs.cols) != (1, m.cols):
        raise ValueError("right-hand side must be one row as wide as the matrix")
    aug = Matrix.stack([m, rhs]).transpose()
    rows, levels, pivots, _, _ = _eliminate(aug._ints, aug.cols, aug._real, reduce=True)
    if m.rows in pivots:
        return None
    dens, rows = _over(aug._real, [[row[m.rows]] for row in rows], levels)
    x = [ZERO] * m.rows
    for (value,), p in zip(_drop(aug._real, dens, rows), pivots):
        x[p] = value
    return tuple(x)


def certified_congruence_diagonalize(a: Matrix) -> tuple[Matrix, Matrix]:
    """Exact congruence P^T * a * P = D with D diagonal and P invertible.

    The same symmetric fraction-free elimination as
    ``exact.congruence_diagonalize``, with the columns of P carried along:
    each step applies the Bareiss update to them too, and the zero-pivot
    repairs swap or add them beside the matrix.  It is the eager scheme,
    which rewrites every row below the pivot at every step, so it is also
    the reference for the D of the lazy one.
    """
    _require_real_symmetric(a)
    n = a.rows
    rows, den = a._common()
    w = [list(row) for row in rows]
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # columns of P
    diag = []
    prev = 1

    def add_col(dst, src):
        # column op  col_dst += col_src  paired with the matching row op
        for row in w:
            row[dst] += row[src]
        w[dst] = [x + y for x, y in zip(w[dst], w[src])]
        cols[dst] = [x + y for x, y in zip(cols[dst], cols[src])]

    def swap_cols(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]
        cols[i], cols[j] = cols[j], cols[i]

    for k in range(n):
        if not w[k][k]:
            j = next((j for j in range(k + 1, n) if w[j][j]), None)
            if j is not None:
                swap_cols(k, j)
            else:
                j = next((j for j in range(k + 1, n) if w[k][j]), None)
                if j is None:
                    diag.append(0)  # row/column already clear
                    continue
                add_col(k, j)
        piv = w[k][k]
        diag.append(prev * piv)
        lead, col_k = w[k], cols[k]
        for j in range(k + 1, n):
            f = lead[j]
            w[j] = _combine_z(piv, w[j], f, lead, prev, k + 1)
            cols[j] = _combine_z(piv, cols[j], f, col_k, prev, 0)
        prev = piv

    d = [[0] * n for _ in range(n)]
    for k, x in enumerate(diag):
        d[k][k] = x
    return Matrix._lifted(True, [den] * n, d, n), Matrix._lifted(True, [1] * n, list(zip(*cols)), n)


def _gaussian_pairs(rows) -> list[list[tuple[Fraction, Fraction]]]:
    return [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in rows]


def _pair_times(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pivot_columns(rows, ncols: int) -> list[int]:
    """The pivot columns of the Gauss-Jordan elimination of (re, im) Fraction rows."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = next((r for r in range(len(pivots), len(m)) if m[r][c] != (0, 0)), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        a, b = m[top][c]
        inv = (a / (a * a + b * b), -b / (a * a + b * b))
        m[top] = [_pair_times(inv, x) for x in m[top]]
        for i in range(len(m)):
            f = m[i][c]
            if i != top and f != (0, 0):
                m[i] = [(x[0] - g[0], x[1] - g[1]) for x, g in zip(m[i], (_pair_times(f, y) for y in m[top]))]
        pivots.append(c)
    return pivots


def kernel_witness_errors(m: Matrix, k: Matrix) -> list[str]:
    """What is wrong with K as ``exact.kernel(m)``, in (re, im) Fraction arithmetic; empty if nothing.

    K must be killed by M (M K^T = 0), have cols - rank(M) rows, and row i
    must be 1 at the i-th free column of M's reduced row echelon form and 0
    at the other free columns; those rows are independent by shape, so K
    is a basis of the kernel.
    """
    rows, basis = _gaussian_pairs(m.entries()), _gaussian_pairs(k.entries())
    errors = []
    for i, v in enumerate(basis):
        for r, row in enumerate(rows):
            acc = (Fraction(0), Fraction(0))
            for x, y in zip(row, v):
                p = _pair_times(x, y)
                acc = (acc[0] + p[0], acc[1] + p[1])
            if acc != (0, 0):
                errors.append(f"row {r} of M does not kill row {i} of K")
    free = sorted(set(range(m.cols)).difference(_pivot_columns(rows, m.cols)))
    if len(basis) != len(free):
        errors.append(f"K has {len(basis)} rows, but M has {len(free)} free columns")
    for i, v in enumerate(basis[: len(free)]):
        if [v[f] for f in free] != [(1, 0) if j == i else (0, 0) for j in range(len(free))]:
            errors.append(f"row {i} of K is not 1 at free column {free[i]} and 0 at the others")
    return errors


def oracle_congruence_diagonal(rows):
    """Diagonal of the rational symmetric elimination (pivots, not minors)."""
    n = len(rows)
    m = [[x.re for x in row] for row in rows]

    def add_col(dst, src, f):
        for i in range(n):
            m[i][dst] += f * m[i][src]
        for i in range(n):
            m[dst][i] += f * m[src][i]

    def swap_cols(i, j):
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        m[i], m[j] = m[j], m[i]

    for k in range(n):
        if not m[k][k]:
            j = next((j for j in range(k + 1, n) if m[j][j]), None)
            if j is not None:
                swap_cols(k, j)
            else:
                j = next((j for j in range(k + 1, n) if m[k][j]), None)
                if j is None:
                    continue
                add_col(k, j, Fraction(1))
        piv = m[k][k]
        for j in range(k + 1, n):
            if m[k][j]:
                add_col(j, k, -m[k][j] / piv)
    return [m[i][i] for i in range(n)]


def lazy_congruence_diagonalize(a: Matrix) -> Matrix:
    """The D of ``exact.congruence_diagonalize`` by the lazy scheme on every step.

    Each pivot row takes the scalings it skipped before it serves, and each
    step scans every row below the pivot, even where the pivot row has
    nothing right of its pivot; D is made canonical by ``Matrix._lifted``.
    """
    _require_real_symmetric(a)
    n = a.rows
    rows, den = a._common()
    w = [list(row) for row in rows]
    levels = [1] * n  # the pivot each row was last rewritten with
    diag = []
    prev = 1

    def catch_up(j, start):
        if levels[j] != prev:
            w[j] = _combine_z(prev, w[j], 0, w[j], levels[j], start)
            levels[j] = prev

    for k in range(n):
        if not w[k][k]:
            j = next((j for j in range(k + 1, n) if w[j][j]), None)
            if j is not None:  # swap columns and rows k and j
                for row in w:
                    row[k], row[j] = row[j], row[k]
                w[k], w[j] = w[j], w[k]
                levels[k], levels[j] = levels[j], levels[k]
            else:
                j = next((j for j in range(k + 1, n) if w[k][j]), None)
                if j is None:
                    diag.append(0)  # row/column already clear
                    continue
                catch_up(k, k)
                catch_up(j, k)
                for row in w:  # col_k += col_j, paired with row_k += row_j
                    row[k] += row[j]
                w[k] = [x + y for x, y in zip(w[k], w[j])]
        catch_up(k, k)
        piv = w[k][k]
        diag.append(prev * piv)
        lead = w[k]
        for j in range(k + 1, n):
            f = w[j][k]
            if f:
                w[j] = _combine_z(piv, w[j], f, lead, levels[j], k + 1)
                levels[j] = piv
        prev = piv

    d = [[0] * n for _ in range(n)]
    for k, x in enumerate(diag):
        d[k][k] = x
    return Matrix._lifted(True, [den] * n, d, n)


# ---------------------------------------------------------------------------
# exact points with sqrt(2)


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(2) with Gaussian-rational a and b: the coordinates of model points."""

    a: GaussianRational = ZERO
    b: GaussianRational = ZERO

    @staticmethod
    def of(x) -> "QuadExt":
        return x if isinstance(x, QuadExt) else QuadExt(gauss(x))

    def __add__(self, other) -> "QuadExt":
        other = QuadExt.of(other)
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadExt":
        other = QuadExt.of(other)
        return QuadExt(self.a - other.a, self.b - other.b)

    def __mul__(self, other) -> "QuadExt":
        if not isinstance(other, QuadExt):
            other = gauss(other)
            return QuadExt(self.a * other, self.b * other)
        return QuadExt(
            self.a * other.a + gauss(2) * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadExt":
        other = QuadExt.of(other)
        n = other.a * other.a - gauss(2) * other.b * other.b
        if not n:
            raise ZeroDivisionError("division by zero in Q(i, sqrt 2)")
        return self * QuadExt(other.a / n, -other.b / n)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __str__(self) -> str:
        return f"({self.a})+({self.b})*sqrt2"


SQRT2 = QuadExt(ZERO, ONE)


def unit_circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point (re, im) on the unit circle from the slope parameter."""
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def spindle_point(t: Fraction, u: Fraction):
    """Exact point of the spindle model over Q(i, sqrt 2), the reference for its integer form."""
    re, im = unit_circle_point(Fraction(t))
    u = Fraction(u)
    return (
        QuadExt(ZERO, gauss((u + 1 / u) / 2)),  # (u + 1/u) / sqrt(2)
        QuadExt(gauss(re)),
        QuadExt(gauss(im)),
        QuadExt(ZERO, gauss((1 / u - u) / 2)),  # (1/u - u) / sqrt(2)
        QuadExt(ONE),
    )


def horn_point(t: Fraction, u: Fraction):
    """Exact point of the horn model over Q(i, sqrt 2), the reference for its integer form."""
    re, im = unit_circle_point(Fraction(t))
    u = Fraction(u)
    return (
        QuadExt(gauss(-u - 1 / u)),
        QuadExt(gauss(u)),
        SQRT2,
        QuadExt(gauss(im / u)),
        QuadExt(gauss(re / u)),
    )


# ---------------------------------------------------------------------------
# quadric spans built from their forms


def pair_form(terms, dim: int) -> QuadraticForm:
    """Build sum of c * y_a y_b from ((a, b), c) items, adding into a dim x dim list."""
    m = [[ZERO] * dim for _ in range(dim)]
    for (a, b), c in terms:
        c = gauss(c)
        if a == b:
            m[a][a] = m[a][a] + c
        else:
            half = c / gauss(2)
            m[a][b] = m[a][b] + half
            m[b][a] = m[b][a] + half
    return QuadraticForm(Matrix(m))


def cofactor_adjugate_form(a) -> QuadraticForm:
    """tr(A adj Y) = sum A_ij C_ij, with C_ij = (-1)^(i+j) times the minor of Y without row i and column j.

    Y[p][q] is the Veronese coordinate whose monomial in (s, t, u) is the
    product of variables p and q.
    """
    index = {m: k for k, m in enumerate(VERONESE_MONOMIALS)}

    def y(p, q):
        return index[tuple((c == p) + (c == q) for c in range(3))]

    terms = []
    for i in range(3):
        for j in range(3):
            (r0, r1), (c0, c1) = [r for r in range(3) if r != i], [c for c in range(3) if c != j]
            sign = (-1) ** (i + j) * a[i][j]
            terms += [((y(r0, c0), y(r1, c1)), sign), ((y(r0, c1), y(r1, c0)), -sign)]
    return pair_form(terms, 6)


def combination_witnesses(height: int = 1) -> frozenset:
    """The normalized signatures of the combinations of the Veronese generators.

    The coefficients range over [-height, height]; only the rows whose first
    nonzero entry is positive are diagonalized, since a row and its negative
    give the same normalized signature.
    """
    span = veronese_data()
    values = range(-height, height + 1)
    rows = [c for c in itertools.product(values, repeat=len(span)) if next((x for x in c if x), 0) > 0]
    return frozenset(signature(q.matrix) for q in span.combinations(rows))


def toric_forms(param) -> tuple[QuadraticForm, ...]:
    """The binomials root - leaf of every fiber of the sum map, sorted by (root, leaf)."""
    fibers = _sum_fibers(param.exponents).values()
    edges = sorted((pairs[0], leaf) for pairs in fibers for leaf in pairs[1:])
    return tuple(pair_form([(root, 1), (leaf, -1)], len(param)) for root, leaf in edges)


def checked_rows(forms, dim: int) -> Matrix:
    """The upper triangles of the forms, one row each, checked independent by the rank."""
    rows = Matrix.stack([Matrix.zero(0, dim * (dim + 1) // 2), *(q.matrix.upper() for q in forms)])
    if rows.rank() != len(forms):
        raise ValueError("the forms are linearly dependent")
    return rows


def entrywise_forms(coeffs: Matrix, dim: int) -> tuple[QuadraticForm, ...]:
    """The forms whose upper triangles, row by row, are the rows, filled entry by entry."""
    out = []
    for row in coeffs.entries():
        m = [[ZERO] * dim for _ in range(dim)]
        it = iter(row)
        for a in range(dim):
            for b in range(a, dim):
                m[a][b] = m[b][a] = next(it)
        out.append(QuadraticForm(Matrix(m)))
    return tuple(out)


def loop_real_basis(space, i: int) -> tuple[QuadraticForm, ...]:
    """The fixed forms of sigma_i on a span closed under it, one combination at a time.

    c is fixed when c = M conj(c), for M the coordinates of the sigma_i
    images of the basis; the real and imaginary parts of c make that a real
    kernel, and each kernel vector gives the form sum_k c_k * basis[k],
    summed matrix by matrix.
    """
    k = len(space.basis)
    images = [space.coordinates_of(apply_sigma(i, q)) for q in space.basis]
    if None in images:
        raise ValueError("span is not closed under the sigma action")
    mr = [[images[j][r].re for j in range(k)] for r in range(k)]
    mi = [[images[j][r].im for j in range(k)] for r in range(k)]
    big = [
        [mr[r][j] - (r == j) for j in range(k)] + [mi[r][j] for j in range(k)] for r in range(k)
    ] + [
        [mi[r][j] for j in range(k)] + [-mr[r][j] - (r == j) for j in range(k)] for r in range(k)
    ]
    out = []
    for vec in kernel(Matrix(big)).entries() if k else ():
        total = Matrix.zero(space.dim, space.dim)
        for j, q in enumerate(space.basis):
            c = GaussianRational(vec[j].re, vec[k + j].re)
            if c:
                total = total + q.matrix.scale(c)
        out.append(QuadraticForm(total))
    return tuple(out)


def combination_family_form_x(c: FamilyCoeffs) -> QuadraticForm:
    """The real form of a family member: the span of the four generators moved
    by ``mu_transform(2, .)``, then its combination with c."""
    moved = Matrix.stack(mu_transform(2, q).matrix.upper() for q in family_basis().basis)
    span = FormSpan.from_rows(moved, coords=family_basis().coords)
    return span.combination(c.as_tuple())


# ---------------------------------------------------------------------------
# forms at points


def solve_coordinates_of(span: FormSpan, q: QuadraticForm):
    """The coefficients of q in the span's basis, or None: one solve of the whole coefficient system."""
    return solve(span.coefficients, q.matrix.upper())


def kron_sym2(phi: Matrix) -> Matrix:
    """The action of a 2x2 matrix on (s^2, st, t^2): phi (x) phi, read on the monomials and folded."""
    return _on_degree2(phi.kron(phi), DEGREE2_MONOMIALS_2VARS)


_I3 = Matrix.identity(3)


def product_rule_d_rep(m: LieElement) -> Matrix:
    """d_rep by the product rule on each call: D_left (x) I + I (x) D_right in the y order."""
    dl = monomial_rep_derivative(m.left, DEGREE2_MONOMIALS_2VARS)
    dr = monomial_rep_derivative(m.right, DEGREE2_MONOMIALS_2VARS)
    return y_order(dl.kron(_I3) + _I3.kron(dr))


def coordinates(x: LieElement) -> tuple[GaussianRational, ...]:
    """The coefficients of x in FULL_BASIS order, read off the entries of its halves.

    A traceless [[a, b], [c, -a]] is a*S + b*T + c*Q, so each side gives (b, c, a).
    """
    (la, lb), (lc, _) = x.left.entries()
    (ra, rb), (rc, _) = x.right.entries()
    return (lb, lc, la, rb, rc, ra)


def entrywise_traceless(half: Matrix) -> bool:
    """Whether a 2x2 matrix has trace zero, read off its Gaussian-rational entries."""
    (a, _), (_, d) = half.entries()
    return not a + d


def shear_product_congruence(rng: random.Random, n: int) -> Matrix:
    """``verify._random_congruence`` as a product of up to 2n shear matrices, one Matrix each."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        shear[i][j] = random_fraction(rng)
        m = m * Matrix(shear)
    return m


def evaluate(q, point):
    """The value of a quadratic form at a point whose coordinates lie in any ring containing Q(i).

    Summed as sum_i p_i * (sum_j a_ij p_j): one product of two coordinates per row.
    """
    total = ZERO
    for p, row in zip(point, q.matrix.entries()):
        inner = ZERO
        for a, x in zip(row, point):
            if a:
                inner = inner + a * x
        if inner:
            total = total + p * inner
    return total


def eval_lift(param, s, t, u, w) -> tuple[GaussianRational, ...]:
    """A monomial parametrization at the projective bidegree-(2,2) lift s^(1+a) t^(1-a) u^(1+b) w^(1-b)."""
    s, t, u, w = (gauss(x) for x in (s, t, u, w))
    return tuple(
        s ** (1 + a) * t ** (1 - a) * u ** (1 + b) * w ** (1 - b)
        for a, b in param.exponents
    )


_I2_SAMPLES = 60  # evaluation points; five more than the quadratic monomials if that is more


def evaluation_nullity(param, seed: int = 7) -> int:
    """Dimension of the degree-2 part of the ideal, from evaluation-matrix nullity.

    This recomputes the dimension from scratch: evaluate all quadratic
    monomials in the ambient coordinates at random rational torus points and
    take the null space dimension, without using any stored generator list.
    """
    n = len(param)
    monos = [(i, j) for i in range(n) for j in range(i, n)]
    a_exps, b_exps = zip(*param.exponents)
    amin, amax, bmin, bmax = min(a_exps), max(a_exps), min(b_exps), max(b_exps)
    rng = random.Random(f"i2-dim:{seed}:{param.coords}")
    rows = []
    for _ in range(max(_I2_SAMPLES, len(monos) + 5)):
        s = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        u = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        # the point s^a u^b times sn^-amin sd^amax un^-bmin ud^bmax, in integers;
        # the scale multiplies the row by a nonzero constant, so the rank stays
        (sn, sd), (un, ud) = s.as_integer_ratio(), u.as_integer_ratio()
        pt = [
            sn ** (a - amin) * sd ** (amax - a) * un ** (b - bmin) * ud ** (bmax - b)
            for a, b in param.exponents
        ]
        rows.append([pt[i] * pt[j] for i, j in monos])
    m = Matrix(rows)
    return m.cols - m.rank()


# ---------------------------------------------------------------------------
# divisor classes

EXCEPTIONAL = tuple(
    NSClass(tuple(1 if k == 2 + j else 0 for k in range(6))) for j in range(4)
)


# ---------------------------------------------------------------------------
# subalgebras of sl2+sl2

R = Matrix([[0, -1], [1, 0]])
R1 = LieElement(R, Matrix.zero(2, 2))
R2 = LieElement(Matrix.zero(2, 2), R)

# the rotation generator of each factor depends on which real structure is
# in force: entrywise conjugation fixes r, the unit-circle structures fix i*s
ROTATION_GENERATORS = {
    0: (R1, R2),
    1: (I * S1, R2),
    2: (I * S1, I * S2),
}


def span_contains(elements, x: LieElement) -> bool:
    """True iff x is a combination of the elements: its coordinates add no rank."""
    rows = [coordinates(e) for e in elements]
    return Matrix(rows).rank() == Matrix(rows + [coordinates(x)]).rank()


def is_subalgebra(basis) -> bool:
    """True iff all pairwise brackets lie in the span of the basis."""
    basis = list(basis)
    for i, x in enumerate(basis):
        for y in basis[i + 1 :]:
            if not span_contains(basis, bracket(x, y)):
                return False
    return True


def generated_dimension(elements, modulo_p: bool = False) -> int:
    """The dimension of the subalgebra the elements generate, closed under the bracket exactly.

    The span of the elements grows by every bracket of two of its basis
    elements that it does not contain, until none is left; each containment
    is a rank over Q(i) of coordinate rows.  With ``modulo_p``, each element
    is first scaled by the lcm of its coordinates' denominators, so its
    coordinates and those of every bracket are Gaussian integers, and each
    containment is their ``dense_rank_mod_p``: the result is the dimension
    over F_P of the subalgebra that the residues of the elements generate.
    """
    if modulo_p:
        elements = [x.scale(lcm(*(p.denominator for c in coordinates(x) for p in (c.re, c.im))))
                    for x in elements]

    def rank(xs) -> int:
        rows = [coordinates(e) for e in xs]
        if not modulo_p:
            return Matrix(rows).rank()
        flat = [(int(c.re), int(c.im)) for row in rows for c in row]
        return dense_rank_mod_p([flat], len(FULL_BASIS), False)

    basis = []

    def grow(x) -> None:
        if rank(basis + [x]) > len(basis):
            basis.append(x)

    for x in elements:
        grow(x)
    i = 1
    while i < len(basis):
        for y in basis[:i]:
            grow(bracket(basis[i], y))
        i += 1
    return len(basis)



@lru_cache(maxsize=1)
def bracket_terms() -> tuple[tuple[int, int, int, int], ...]:
    """The nonzero structure constants of FULL_BASIS, as (j, l, k, c) with c in [e_j, e_l] at e_k.

    Read once off ``bracket``; they are integers ([T, Q] = S, [S, T] = 2T
    and [S, Q] = -2Q in each half), so they map into F_P with no inverse.
    """
    out = []
    for j, x in enumerate(FULL_BASIS):
        for l, y in enumerate(FULL_BASIS):
            row = _coordinate_rows((bracket(x, y),))
            if not row.is_real or row._dens != (1,):
                raise ArithmeticError("a structure constant of FULL_BASIS is not an integer")
            out.extend((j, l, k, c) for k, c in enumerate(row._ints[0]) if c)
    return tuple(out)


def generated_rank_mod_p(elements: Matrix) -> int:
    """The rank over F_P of the subalgebra that the elements' coordinate rows generate modulo P.

    Each lifted coordinate row is mapped into F_P (``_residues``), and the
    rows are closed under the bracket by the integer structure constants
    (``bracket_terms``): a row that is independent of those taken so far
    (``_take_mod_p``) is taken, and each taken row is bracketed with every
    earlier one, so the span of the taken rows is closed when the loop
    ends.  Each taken row is the residue of an iterated bracket of the
    lifted rows, so a rank of 6 proves that the elements generate all of
    sl2+sl2; a smaller rank decides nothing.  The count stops at 6.
    """
    n = len(FULL_BASIS)
    terms = bracket_terms()
    leads = [None] * n
    taken = []

    def take(v) -> bool:
        if _take_mod_p(v.copy(), leads):
            taken.append(v)
        return len(taken) == n

    for flat in elements._ints:
        if take(_residues(flat, elements._real)):
            return n
    i = 1
    while i < len(taken):  # rows are taken as the loop runs
        u = taken[i]
        for w in taken[:i]:
            v = [0] * n
            for j, l, k, c in terms:
                v[k] += c * u[j] * w[l]
            if take(_residues(v, True)):
                return n
        i += 1
    return len(taken)

@dataclass(frozen=True)
class Subalgebra:
    """A bracket-closed span of independent elements."""

    basis: tuple[LieElement, ...]

    def __post_init__(self):
        rows = Matrix([coordinates(e) for e in self.basis])
        if rows.rank() != len(self.basis):
            raise ValueError("subalgebra basis is linearly dependent")
        if not is_subalgebra(self.basis):
            raise ValueError("span is not closed under the bracket")

    def __len__(self) -> int:
        return len(self.basis)


CATALOG_ALPHAS = (gauss(1), gauss(2), I)


def subalgebra_catalog() -> list[tuple[str, Subalgebra]]:
    """The classified subalgebras of sl2+sl2, up to complex conjugation.

    One-parameter families are instantiated at alpha = 1, 2 and i; the
    continuum is not enumerated.  Every entry is verified to be closed
    under the bracket on construction.
    """
    out: list[tuple[str, Subalgebra]] = []

    def add(name, *elements):
        out.append((name, Subalgebra(tuple(elements))))

    add("t1", T1)
    add("s1", S1)
    add("t1+t2", T1 + T2)
    add("t1+s2", T1 + S2)
    for a in CATALOG_ALPHAS:
        add(f"s1+{a}s2", S1 + a * S2)
    add("t1,s1", T1, S1)
    add("t1,t2", T1, T2)
    add("t1,s2", T1, S2)
    add("s1,s2", S1, S2)
    add("s1+t2,t1", S1 + T2, T1)
    add("t1+t2,s1+s2", T1 + T2, S1 + S2)
    for a in CATALOG_ALPHAS:
        add(f"s1+{a}s2,t1", S1 + a * S2, T1)
    add("t1,q1,s1", T1, Q1, S1)
    add("t1,s1,t2", T1, S1, T2)
    add("t1,s1,s2", T1, S1, S2)
    for a in CATALOG_ALPHAS:
        add(f"s1+{a}s2,t1,t2", S1 + a * S2, T1, T2)
    add("t1+t2,q1+q2,s1+s2", T1 + T2, Q1 + Q2, S1 + S2)
    add("t1,s1,t2,s2", T1, S1, T2, S2)
    add("t1,q1,s1,t2", T1, Q1, S1, T2)
    add("t1,q1,s1,s2", T1, Q1, S1, S2)
    add("t1,q1,s1,t2,s2", T1, Q1, S1, T2, S2)
    add("t1,q1,s1,t2,q2,s2", T1, Q1, S1, T2, Q2, S2)
    return out


# ---------------------------------------------------------------------------
# invariant forms, one basis form at a time


def single_table_solve_invariant(elements, table):
    """Forms A in the table's span with D^T A + A D = 0 for every element's D.

    The whole span at once: each element's system c * blocks, times K^T for
    the combinations K kept so far, and one kernel of the span's size per
    element; an empty kernel ends the solve.
    """
    red = table.reduced
    k = red.rows
    width = k + len(table.residual)
    keep = None
    systems = Matrix(elements) * table.blocks if elements else Matrix.zero(0, 0)
    for i in range(systems.rows):
        system = systems.row(i).reshape(width, k)
        if keep is not None:
            system = system * keep.transpose()
        ker = kernel(system)
        if not ker.rows:
            return FormSpan((), coords=table.coords)
        keep = ker if keep is None else ker * keep
    return FormSpan.row_space(red if keep is None else keep * red, coords=table.coords)


def matrix_step_solve_invariant(elements, pieces):
    """Forms A in the pieces' span with D^T A + A D = 0, one Matrix per step.

    ``elements`` holds one coordinate row per element.  In each piece an
    element's system is the row c * blocks as a Matrix, reshaped, times K^T
    for the combinations K kept so far, and its Gauss-Jordan kernel cuts K
    down; a zero row keeps the piece and an empty kernel drops it.
    """
    lifted = Matrix(elements) if elements else None
    kept = []
    for table in pieces:
        red = table.reduced
        k = red.rows
        width = k + len(table.residual)
        keep = None
        systems = lifted * table.blocks if lifted is not None else Matrix.zero(0, 0)
        zero = Matrix.zero(1, systems.cols)
        for i in range(systems.rows):
            row = systems.row(i)
            if row == zero:
                continue
            system = row.reshape(width, k)
            if keep is not None:
                system = system * keep.transpose()
            ker = gauss_jordan_kernel(system)
            if not ker.rows:
                break
            keep = ker if keep is None else ker * keep
        else:
            kept.append(red if keep is None else keep * red)
    width = pieces[0].reduced.cols
    return FormSpan.row_space(Matrix.stack([Matrix.zero(0, width), *kept]), coords=pieces[0].coords)


def lifted_solve_invariant(elements: Matrix, pieces):
    """Forms A in the pieces' span with D^T A + A D = 0, always by the exact path.

    The solver before the dimension bound: in each piece, the raw rows of
    the product elements * blocks are the systems, ``exact._common_kernel``
    cuts the combinations K of R's rows that every element kills, the piece
    keeps K R, or all of R when every element acts on it as zero, and one
    reduced row echelon form of all the kept rows is the basis.
    """
    kept = []
    for table in pieces:
        red = table.reduced
        real, systems = True, ()
        if elements.rows:
            real, _, systems = elements._product(table.blocks)
        keep = _common_kernel(systems, red.rows, real)
        if keep is None:
            kept.append(red)
        elif keep:
            kept.append(Matrix._lifted(real, (1,) * len(keep), keep, red.rows) * red)
    width = pieces[0].reduced.cols
    return FormSpan.row_space(Matrix.stack([Matrix.zero(0, width), *kept]), coords=pieces[0].coords)


def dense_rank_mod_p(systems, ncols: int, real: bool) -> int:
    """``exact._rank_mod_p`` of the systems' residues, each reduction rebuilding the whole row tail.

    A row is reduced against the pivot row of column c at every column from
    c on, zero entries of the pivot row included; the count stops at ncols.
    """
    basis = [None] * ncols  # basis[c]: an echelon row that is 1 at c and 0 before it
    rank = 0
    for flat in systems:
        if real:
            residues = [x % _P for x in flat]
        else:
            residues = [(xr + _S * xi) % _P for xr, xi in flat]
        for start in range(0, len(residues), ncols):
            row = residues[start : start + ncols]
            for c, lead in enumerate(basis):
                f = row[c]
                if not f:
                    continue
                if lead is None:
                    inv = pow(f, -1, _P)
                    basis[c] = [0] * c + [x * inv % _P for x in row[c:]]
                    rank += 1
                    if rank == ncols:
                        return rank
                    break
                row[c:] = [(x - f * y) % _P for x, y in zip(row[c:], lead[c:])]
    return rank


def mod_p_dimension_bound(elements: Matrix, pieces) -> int:
    """sum_p (k_p - rank_P(p)) over the pieces: at least the dimension of the invariant-form answer.

    rank_P(p) is the ``dense_rank_mod_p`` of the raw rows of the product
    elements * blocks, the piece's element systems stacked; it is at most
    their rank over Q(i), so the sum is an upper bound.
    """
    bound = 0
    for table in pieces:
        k = table.reduced.rows
        if k:
            real, _, systems = elements._product(table.blocks)
            bound += k - dense_rank_mod_p(systems, k, real)
    return bound


def coefficient_row_solve_invariant(tangents, ambient):
    """Forms A in the span with D^T A + A D = 0, solved on the span's coefficient rows.

    ``coeffs`` holds the upper triangles of the forms left so far, one row
    per form; for a tangent D, ``symmetric_images`` gives upper(D^T A + A D)
    of every row, and the combinations of rows that it kills are the kernel
    of its transpose.  One reduced row echelon form at the end makes the
    basis canonical.
    """
    if not ambient.basis:
        return ambient
    coeffs = ambient.coefficients
    for d in tangents:
        ker = kernel(symmetric_images(coeffs, d).transpose())
        if not ker.rows:
            return FormSpan((), coords=ambient.coords)
        coeffs = ker * coeffs
    return FormSpan.row_space(coeffs, coords=ambient.coords)


def per_form_solve_invariant(tangents, ambient):
    """Forms A in the span with D^T A + A D = 0, each image built as a 9x9 matrix.

    For each tangent, the images (AD)^T + AD of the current basis forms are
    the columns of the system, and the kernel gives a new, smaller span.
    """
    span = ambient
    for d in tangents:
        if not span.basis:
            break
        system = Matrix.stack(
            (p.transpose() + p).upper() for p in (q.matrix * d for q in span.basis)
        ).transpose()
        ker = [column_vector(v) for v in column_kernel(system)]
        span = FormSpan(tuple(span.combinations(ker)) if ker else (), coords=span.coords)
    if not span.basis:
        return span
    return FormSpan.row_space(span.coefficients, coords=span.coords)


def per_form_span_stabilizer(span):
    """The stabilizer of a span in sl2+sl2, with the images of each basis form built one by one."""
    tangents = [d_rep(x) for x in FULL_BASIS]
    k = len(span)
    negated = [-span.coefficients.row(n) for n in range(k)]
    zero = Matrix.zero(1, span.coefficients.cols)
    blocks = []
    for m, a in enumerate(span.basis):
        images = [(p.transpose() + p).upper() for p in (a.matrix * d for d in tangents)]
        coords = [negated[n] if row == m else zero for row in range(k) for n in range(k)]
        blocks.append(Matrix.stack(images + coords).transpose())
    out = []
    for v in column_kernel(Matrix.stack(blocks)):
        x = column_vector(v)[: len(FULL_BASIS)]
        out.append(sum((c * b for c, b in zip(x, FULL_BASIS) if c), E))
    return out


# ---------------------------------------------------------------------------
# lattice types: the bounded linear search

UNIMODULAR_BOUND = 3  # largest absolute entry of the searched matrices


@lru_cache(maxsize=1)
def unimodular_matrices() -> tuple[IntMatrix, ...]:
    rng = range(-UNIMODULAR_BOUND, UNIMODULAR_BOUND + 1)
    return tuple(
        ((a, b), (c, d))
        for a, b, c, d in itertools.product(rng, rng, rng, rng)
        if a * d - b * c in (1, -1)
    )


def linear_equivalent(a: LatticeType, b: LatticeType) -> bool:
    """Equivalence by a linear unimodular map compatible with the involutions.

    The search ranges over integer matrices with entries bounded by 3, which
    is exhaustive for linear maps between polygons inside the 3x3 grid; it
    sees no translation.
    """
    va, vb = set(a.polygon.vertices), set(b.polygon.vertices)
    if len(va) != len(vb):
        return False
    for m in unimodular_matrices():
        if {(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in va} == vb:
            if _mat_mul(m, a.involution.m) == _mat_mul(b.involution.m, m):
                return True
    return False


def affine_equivalent(a: LatticeType, b: LatticeType) -> bool:
    """Whether some x -> m x + t maps a onto b with m sigma_a = sigma_b m and sigma_b t = t.

    m ranges over the bounded matrices of ``linear_equivalent``; t over the
    translations that send the image of one vertex of a to a vertex of b.
    """
    va, vb = set(a.polygon.vertices), set(b.polygon.vertices)
    x0, y0 = a.polygon.vertices[0]
    for m in unimodular_matrices():
        if _mat_mul(m, a.involution.m) != _mat_mul(b.involution.m, m):
            continue
        moved = {(m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) for x, y in va}
        start = (m[0][0] * x0 + m[0][1] * y0, m[1][0] * x0 + m[1][1] * y0)
        for w in vb:
            t = (w[0] - start[0], w[1] - start[1])
            if b.involution.apply(t) == t and {(x + t[0], y + t[1]) for x, y in moved} == vb:
                return True
    return False


# ---------------------------------------------------------------------------
# the float sampler, one point at a time


def _dp6_point(a: float, b: float):
    return (
        2.0, math.cos(a), math.sin(a), math.cos(b), math.sin(b),
        math.cos(a - b), -math.sin(a - b),
    )


def _ring_point(a: float, b: float):
    return (2.0, math.cos(a), math.sin(a), math.cos(b), math.sin(b))


def _spindle_point(a: float, b: float):
    u = math.tan(b / 2.0)
    if u == 0.0 or not math.isfinite(u) or abs(u) > TAN_CUTOFF:
        return None
    h = 1.0 / math.sqrt(2.0)
    return (
        h * (u + 1.0 / u), math.cos(a), math.sin(a), h * (1.0 / u - u), 1.0,
    )


def _horn_point(a: float, b: float):
    u = math.tan(b / 2.0)
    if u == 0.0 or not math.isfinite(u) or abs(u) > TAN_CUTOFF:
        return None
    return (
        -u - 1.0 / u, u, math.sqrt(2.0), math.sin(a) / u, math.cos(a) / u,
    )


def _veronese_point(a: float, b: float):
    s = math.tan(a / 2.0)
    t = math.tan(b / 2.0)
    if abs(s) > TAN_CUTOFF or abs(t) > TAN_CUTOFF:
        return None
    return (1.0, s * t, s, t, s * s, t * t)


_NODE_POINTS = {
    "dp6": _dp6_point, "ring": _ring_point, "spindle": _spindle_point,
    "horn": _horn_point, "veronese": _veronese_point,
}


def node_surface_points(surface: str, resolution: int):
    """``sampling.surface_points`` one grid node at a time, every term computed at the node."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    param = _NODE_POINTS[surface]
    pts = []
    skipped = 0
    for i in range(resolution):
        a = 2.0 * math.pi * i / resolution
        for j in range(resolution):
            b = 2.0 * math.pi * j / resolution
            p = param(a, b)
            if p is None:
                skipped += 1
            else:
                pts.append(p)
    return pts, skipped


def loop_sample(surface: str, resolution: int, projection=None) -> PointCloud:
    """``sampling.sample`` as a loop over the points of ``node_surface_points``.

    Every sum is an explicit left fold from the int 0, as ``sum()`` folds
    through Python 3.11; from 3.12 ``sum()`` of floats is compensated and
    would not be this reference.
    """
    forms = sparse_forms(surface_quadrics(surface))
    pts, skipped = node_surface_points(surface, resolution)
    dim = len(pts[0])
    proj = default_projection(dim) if projection is None else projection
    if len(proj) != 3 or any(len(row) != dim - 1 for row in proj):
        raise ValueError(f"projection must be 3 rows of {dim - 1} entries")
    worst = 0.0
    out = []
    for p in pts:
        worst = max(worst, residual(forms, p))
        affine = [x / p[0] for x in p[1:]]
        point = []
        for row in proj:
            acc = 0
            for r, x in zip(row, affine):
                acc += r * x
            point.append(acc)
        out.append(tuple(point))
    return PointCloud(out, skipped, worst)


def fstring_write_csv(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,z\n")
        for x, y, z in cloud.points:
            fh.write(f"{x:.12g},{y:.12g},{z:.12g}\n")


def fstring_write_ply(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud.points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for x, y, z in cloud.points:
            fh.write(f"{x:.12g} {y:.12g} {z:.12g}\n")
