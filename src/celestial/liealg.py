"""sl2+sl2: brackets, real structures, and the invariant-form solver.

Elements are pairs of traceless 2x2 matrices over Q(i).  Differentiating
the symmetric-square action of 2x2 matrix pairs on P^8 turns each element
into a 9x9 matrix D; a quadratic form A in the ideal of the double Segre
surface is invariant under the corresponding 1-parameter subgroup exactly
when D^T A + A D = 0.  That map is linear in both D and A, so the action of
the six basis elements on a span of forms is tabulated once, in the span's
own coordinates (``ActionTable``), and the invariant forms of a subalgebra
come out of a few exact kernels of the span's size, read off the
coordinates of its elements.

A span that the six basis elements map into itself, such as I2, is a
representation of sl2+sl2, and it splits into isotypic pieces V_m (x) V_n:
the joint eigenspaces of the two Casimir elements, with eigenvalues
m(m+2) and n(n+2) (Humphreys, Introduction to Lie Algebras and
Representation Theory, 6.2-6.3).  Every element maps each piece into
itself, so the solver takes one kernel per piece instead of one of the
whole span; I2 = (V4 (x) V0) + (V0 (x) V4) + (V2 (x) V2) + (V0 (x) V0)
gives pieces of 5, 5, 9 and 1 forms instead of 20.  By Weyl's theorem the
pieces fill the span, and the split checks that their dimensions add up.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import lcm

from .exact import Matrix, GaussianRational, Record, I, kernel, symmetric_images
from .exact import _common_kernel, _rank_mod_p, _residue_terms, _residues, _take_mod_p, _times_int, _times_mod_p
from .segre import (
    DEGREE2_MONOMIALS_2VARS,
    FormSpan,
    apply_sigma,
    i2_segre,
    monomial_rep_derivative,
    y_order,
)


def _m2(a, b, c, d) -> Matrix:
    return Matrix([[a, b], [c, d]])


_E2 = _m2(0, 0, 0, 0)
_T = _m2(0, 1, 0, 0)
_Q = _m2(0, 0, 1, 0)
_H = _m2(1, 0, 0, -1)
_I3 = Matrix.identity(3)


class LieElement(Record):
    """A pair of traceless 2x2 matrices over Q(i)."""

    _fields = ("left", "right")

    def __init__(self, left: Matrix, right: Matrix):
        for half in (left, right):
            if half.rows != 2 or half.cols != 2:
                raise ValueError("components must be 2x2")
            # a / da + d / dd = 0 on the lifted rows, for each part of a Gaussian a and d
            (da, dd), ((a, _), (_, d)) = half._dens, half._ints
            parts = ((a, d),) if half.is_real else zip(a, d)
            if any(x * dd + y * da for x, y in parts):
                raise ValueError("components must be traceless")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.left + other.left, self.right + other.right)

    def scale(self, c) -> "LieElement":
        return LieElement(self.left.scale(c), self.right.scale(c))

    def __rmul__(self, c) -> "LieElement":
        return self.scale(c)


def _coordinate_rows(elements) -> Matrix:
    """The coefficients of each element in FULL_BASIS order, one row each.

    A traceless [[a, b], [c, -a]] is a*S + b*T + c*Q, so each side gives
    (b, c, a), read off its lifted rows.  The den of each half's row is the
    lcm of its parts' denominators, and the two rows hold a, b and c, so
    the lcm of the four dens is that of the coordinates: the row over it is
    canonical.  The rows are real exactly when every half is.
    """
    halves = [(x.left, x.right) for x in elements]
    real = all(h.is_real for pair in halves for h in pair)
    dens, rows = [], []
    for pair in halves:
        den = lcm(*pair[0]._dens, *pair[1]._dens)
        row = []
        for h in pair:
            (d0, d1), ((a, b), (c, _)) = h._dens, h._ints
            for x, f in ((b, den // d0), (c, den // d1), (a, den // d0)):
                if real:
                    row.append(x * f)
                elif h.is_real:
                    row.append((x * f, 0))
                else:
                    row.append((x[0] * f, x[1] * f))
        dens.append(den)
        rows.append(tuple(row))
    return Matrix._make(real, tuple(dens), tuple(rows), len(FULL_BASIS))


T1 = LieElement(_T, _E2)
Q1 = LieElement(_Q, _E2)
S1 = LieElement(_H, _E2)
T2 = LieElement(_E2, _T)
Q2 = LieElement(_E2, _Q)
S2 = LieElement(_E2, _H)
E = LieElement(_E2, _E2)

FULL_BASIS = (T1, Q1, S1, T2, Q2, S2)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Componentwise matrix commutator."""
    return LieElement(
        x.left * y.left - y.left * x.left,
        x.right * y.right - y.right * x.right,
    )


def _swap_conj(m: Matrix) -> Matrix:
    """[[a, b], [c, d]] -> [[conj d, conj c], [conj b, conj a]]."""
    return m.conjugate().reindex((1, 0), (1, 0))


def lie_sigma(i: int, m: LieElement) -> LieElement:
    """The real structure sigma_i acting on sl2+sl2."""
    if i == 0:
        return LieElement(m.left.conjugate(), m.right.conjugate())
    if i == 1:
        return LieElement(_swap_conj(m.left), m.right.conjugate())
    if i == 2:
        return LieElement(_swap_conj(m.left), _swap_conj(m.right))
    if i == 3:
        return LieElement(m.right.conjugate(), m.left.conjugate())
    raise ValueError("sigma index must be 0..3")


@lru_cache(maxsize=1)
def _basis_images() -> Matrix:
    """The d_rep images of FULL_BASIS, one 81-entry row each, by the product rule.

    Each image is D_left (x) I + I (x) D_right in the frozen y order, with D
    the derivative of each factor's action on (s^2, st, t^2).
    """
    rows = []
    for x in FULL_BASIS:
        dl = monomial_rep_derivative(x.left, DEGREE2_MONOMIALS_2VARS)
        dr = monomial_rep_derivative(x.right, DEGREE2_MONOMIALS_2VARS)
        rows.append(y_order(dl.kron(_I3) + _I3.kron(dr)).reshape(1, 81))
    return Matrix.stack(rows)


def d_rep(m: LieElement) -> Matrix:
    """Derivative at the identity of the symmetric-square action on P^8.

    It is linear in m, so it is the coordinates of m times the images of
    FULL_BASIS, built once, read back as a 9x9 matrix.
    """
    return (_coordinate_rows((m,)) * _basis_images()).reshape(9, 9)


class ActionTable(Record):
    """Tangents D_j acting on a span of forms, in the span's own coordinates.

    ``reduced`` is R, a basis of the span (one upper triangle per row, k
    rows).  The images upper(D_j^T A + A D_j) of the rows of R split
    exactly as Phi_j R + E_j, where the residual E_j, the part that leaves
    the span, is zero at the pivot columns P of the span's reduced row
    echelon form.  ``action_table`` takes the rows of that form for R, in
    an order that helps elimination, so Phi_j is the k x k block of the
    images at P; ``isotypic_pieces`` makes the tables of pieces that every
    D_j maps into themselves.
    ``residual`` lists the columns where some E_j is not zero; there are
    none when every D_j maps the span into itself, as sl2+sl2 does I2.
    Row j of ``blocks`` is [Phi_j | E_j at those columns] transposed, a
    (k + len(residual)) x k matrix, read row by row; so the system of an
    element x = sum c_j D_j is the row c * blocks, reshaped.  ``weights``
    is the (a, b) of a piece of copies of V_a (x) V_b, as
    ``isotypic_pieces`` records it, and None for any other table.  Tables
    compare and hash by identity.
    """

    _fields = ("reduced", "residual", "blocks", "coords", "weights")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        reduced: Matrix,
        residual: tuple[int, ...],
        blocks: Matrix,
        coords: tuple[int, ...],
        weights: tuple[int, int] | None = None,
    ):
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)


def action_table(tangents, ambient: FormSpan) -> ActionTable:
    """The ActionTable of the tangent matrices on the ambient span.

    The rows of R go in increasing order of the number of entries of the
    Phi_j that touch them, each row and column counted: so the elimination
    of a system meets its sparse rows and columns first (a minimum-degree
    order), which about halves the first kernel on I2.  Any order of R's rows
    gives the same spans.
    """
    red, pivots = ambient.coefficients.rref()
    k, m = len(pivots), red.cols
    free = [c for c in range(m) if c not in pivots]  # E_j is zero at the pivots
    red_free = red.reindex(range(k), free)
    splits = []
    for d in tangents:
        img = symmetric_images(red, d)
        phi = img.reindex(range(k), pivots)
        splits.append((phi, img.reindex(range(k), free) - phi * red_free))
    degree = [0] * k
    for phi, _ in splits:
        for i in range(k):
            for c in phi.row(i).nonzero_columns():
                degree[i] += 1
                degree[c] += 1
    # the rows of R, and so of each Phi_j and E_j, and the columns of Phi_j go in this order
    order = sorted(range(k), key=degree.__getitem__)
    residual = sorted(set().union(*(res.nonzero_columns() for _, res in splits)))
    size = (k + len(residual)) * k
    flat = [
        Matrix.stack([phi.reindex(order, order).transpose(), res.reindex(order, residual).transpose()])
        .reshape(1, size)
        for phi, res in splits
    ]
    blocks = Matrix.stack([Matrix.zero(0, size), *flat])
    return ActionTable(red.reindex(order, range(m)), tuple(free[c] for c in residual), blocks, ambient.coords)


def isotypic_pieces(table: ActionTable) -> tuple[ActionTable, ...]:
    """The table split into the joint eigenspaces of the two Casimir elements.

    ``table`` is over FULL_BASIS.  Only a span that the basis maps into
    itself (no residual) is a representation; any other table is one piece.
    The action of e_j on coordinate rows is c -> c Phi_j, and the Casimir
    C = H^2 + 2(TQ + QT) of each factor commutes with it, so its eigenspaces
    are invariant; on V_a (x) V_b the two are a(a+2) and b(b+2).  The pairs
    (a, b) that occur are read off the weights (``_highest_weights``), and
    C1 + x C2, with x above every a(a+2), tells them apart: each piece is
    one kernel.  A piece gets the reduced row echelon basis B of its
    coordinate rows, with pivot columns F: then B Phi_j = Psi_j B, where
    Psi_j = (B Phi_j) at F, and the piece is the table of the forms B R with
    systems Psi_j^T and weights (a, b), which ``solve_invariant`` reads
    (``_jordan_dimension``).  By Weyl's theorem the pieces of a
    representation add up to the whole span, so a shortfall is an error,
    not a case.  A table that is returned whole keeps no weights.
    """
    k = table.reduced.rows
    if table.residual or not k:
        return (table,)
    n = len(FULL_BASIS)
    # [Phi_0 | ... | Phi_5]: row j of blocks is Phi_j transposed, read row by row
    phis = table.blocks.reshape(n * k, k).transpose()
    t1, q1, h1, t2, q2, h2 = (phis.reindex(range(k), range(j * k, (j + 1) * k)) for j in range(n))
    # [Phi_T, Phi_Q] = Phi_H on coordinate rows, so TQ + QT = 2TQ - H
    c1, c2 = (h * h + (t * q).scale(4) - h.scale(2) for t, q, h in ((t1, q1, h1), (t2, q2, h2)))
    # the diagonals of the H systems: S1 and S2 are FULL_BASIS[2] and FULL_BASIS[5]
    tops = _highest_weights(zip(*table.blocks.reindex((2, 5), range(0, k * k, k + 1)).entries()))
    x = max((a * (a + 2) for a, _ in tops), default=0) + 1
    casimir, eye = (c1 + c2.scale(x)).transpose(), Matrix.identity(k)
    pieces = []
    for a, b in tops:
        ker = kernel(casimir - eye.scale(a * (a + 2) + x * b * (b + 2)))
        basis, cols = ker.rref()
        d = basis.rows
        psis = basis * phis.reindex(range(k), [j * k + f for j in range(n) for f in cols])
        blocks = psis.transpose().reshape(n, d * d)
        pieces.append(ActionTable(basis * table.reduced, (), blocks, table.coords, (a, b)))
    if sum(piece.reduced.rows for piece in pieces) != k:
        raise ArithmeticError("the Casimir eigenspaces do not add up to the span")
    return tuple(pieces)


def _highest_weights(diagonals) -> list[tuple]:
    """The (a, b) with a copy of V_a (x) V_b, from the diagonal entries of the two H systems.

    The rows of R are torus weight vectors, so both systems are diagonal
    and row i has the weight (h1_ii, h2_ii).  A weight of V_a (x) V_b has
    the form (a - 2i, b - 2j), so the copies with highest weight (a, b)
    number N(a, b) - N(a+2, b) - N(a, b+2) + N(a+2, b+2), with N(w) the
    multiplicity of the weight w.  Were the systems not diagonal, the
    eigenspaces tried would miss forms, and the split would raise; a weight
    that is not an integer raises here.
    """
    weights = Counter((x.re, y.re) for x, y in diagonals)
    if any(w.denominator != 1 for pair in weights for w in pair):
        raise ArithmeticError("a torus weight is not an integer")
    return sorted(
        (int(a), int(b))
        for a, b in weights
        if a >= 0 and b >= 0
        and weights[a, b] - weights[a + 2, b] - weights[a, b + 2] + weights[a + 2, b + 2] > 0
    )


def solve_invariant(elements: Matrix, pieces, polarizations=None) -> FormSpan:
    """Forms A in the pieces' span with D^T A + A D = 0 for every element's D.

    ``pieces`` are ActionTables over the same tangents whose spans add up
    to the ambient, each mapped into itself by every tangent (or a single
    table); ``elements`` holds one coordinate row per element, in those
    tangents.  In a piece, an element acts through the row c * blocks, read
    as the system [Phi | E]^T of the table, and the answer in the piece is
    the kernel of the element systems stacked.

    Each solve is first decided by two bounds on the dimension of the
    answer.  The upper bound is exact for one element on pieces with
    weights: the sum over the pieces of the kernel that the element's
    Jordan type gives on each copy of V_a (x) V_b (``_jordan_dimension``).
    Otherwise it is sum_p (k_p - rank_P(p)), with rank_P(p) the rank over
    F_P of a piece's stacked systems made from residues alone
    (``_residue_pieces``), at most their rank over Q(i) (``_take_mod_p``).
    The lower bound is the rank of forms known to be invariant and to lie
    in the span: the rows of the pieces every tangent kills
    (``_invariant_rows``) and, for one element over FULL_BASIS, B_XX, B_XY
    and B_YY from the table ``polarizations(pieces)`` (``_polarizations``),
    asked for only when one element leaves a bound of at most four per
    invariant form.  When the two agree, the known forms span the answer,
    and their reduced row echelon form is it.

    Otherwise the exact path decides, and it is the only source of kernel
    rows.  The systems are the raw Gaussian-integer rows of the product
    elements * blocks, each a multiple of the system, with no canonical
    Matrix made of them; the combinations K of R's rows that every element
    kills are cut down on them (``_common_kernel``), and the piece keeps the
    forms K R, or all of R when every element acts on it as zero.  One
    reduced row echelon form of the kept rows of every piece at the end
    makes the basis canonical, so on either path the result does not depend
    on the order or the basis of the elements, nor on the pieces.

    ``invariant_forms`` calls this for one element, or for elements not
    proved to generate all of sl2+sl2.  A form that the elements kill is
    killed by their brackets too, so elements proved to generate it get the
    span's one solve of FULL_BASIS, made here once.
    """
    coords, width = pieces[0].coords, pieces[0].reduced.cols
    if elements.rows:
        bound = _jordan_dimension(elements, pieces)
        if bound is None:
            bound = _mod_p_bound(elements, pieces)
        invariants = _invariant_rows(pieces)
        known, q = None, invariants.rows
        if bound == q:
            known = invariants
        elif polarizations is not None and elements.rows == 1 and bound <= 4 * q:
            tables = polarizations(pieces)
            if tables is not None:
                known = Matrix.stack([invariants, *_element_forms(elements, tables)])
        if known is not None:
            red, pivots = known.rref()
            if len(pivots) == bound:
                return FormSpan.from_rows(red.reindex(range(len(pivots)), range(width)), coords=coords)
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
    return FormSpan.row_space(Matrix.stack([Matrix.zero(0, width), *kept]), coords=coords)


_NILPOTENT = (0, 0)  # the det of a nonzero nilpotent half


def _jordan_dimension(elements: Matrix, pieces) -> int | None:
    """The dimension of the forms that one element kills, from its Jordan type, when every piece has weights.

    Otherwise, or for more than one element, it is None.  In sl2,
    Z^2 = -det Z * I, so a half Z of x = (X, Y) is zero, nilpotent
    (det Z = 0) or semisimple, and x acts on a copy of V_a (x) V_b as
    rho_a(X) (x) 1 + 1 (x) rho_b(Y) (``_copy_kernel``).  The lifted
    coordinate row is one integral multiple of x, which scales both dets by
    the same square: the zero tests and the ratio of the dets are those of
    x.  A piece of k forms holds k / ((a+1)(b+1)) copies.
    """
    if elements.rows != 1 or any(table.weights is None for table in pieces):
        return None
    (c,), real = elements._ints, elements._real
    halves = []
    for t, q, h in (c[:3], c[3:]):  # Z = [[h, t], [q, -h]] in FULL_BASIS order, det Z = -(h^2 + t q)
        if real:
            halves.append((-(h * h + t * q), 0) if t or q or h else None)
        else:
            (tr, ti), (qr, qi), (hr, hi) = t, q, h
            det = (hi * hi - hr * hr - tr * qr + ti * qi, -(2 * hr * hi + tr * qi + ti * qr))
            halves.append(det if tr or ti or qr or qi or hr or hi else None)
    x, y = halves
    total = 0
    for table in pieces:
        a, b = table.weights
        total += table.reduced.rows // ((a + 1) * (b + 1)) * _copy_kernel(a, b, x, y)
    return total


def _copy_kernel(a: int, b: int, x, y) -> int:
    """The dimension of the kernel of x = (X, Y) on one copy of V_a (x) V_b.

    x and y are None for a zero half, and det X and det Y as (re, im)
    otherwise.  With one half zero, or one nilpotent and one semisimple,
    the kernel is the product of the halves' kernels (``_half_kernel``):
    for commuting S semisimple and N nilpotent, ker(S + N) is ker S
    intersected with ker N.  Two nonzero nilpotent halves keep one vector
    per summand V_c of V_a (x) V_b, c = a + b, a + b - 2, ..., |a - b|
    (Clebsch-Gordan).  Two semisimple halves, with eigenvalues +-u and +-v
    (u^2 = -det X, v^2 = -det Y), act on the weight vector v_p (x) v_q as
    pu + qv: that is zero for p = q = 0, which needs a and b even, and for
    p != 0 exactly when p^2 det X = q^2 det Y and q has the one sign of the
    two that makes pu = -qv.
    """
    if x is None or y is None or (x == _NILPOTENT) != (y == _NILPOTENT):
        return _half_kernel(a, x) * _half_kernel(b, y)
    if x == _NILPOTENT:
        return min(a, b) + 1
    (xr, xi), (yr, yi) = x, y
    count = int(a % 2 == 0 and b % 2 == 0)
    for p in range(a, 0, -2):
        for q in range(b, 0, -2):
            if p * p * xr == q * q * yr and p * p * xi == q * q * yi:
                count += 2  # p and -p
    return count


def _half_kernel(n: int, z) -> int:
    """The kernel of rho_n(Z) on V_n: all of it for Z = 0, the top vector for a nilpotent Z, the weight 0 otherwise."""
    if z is None:
        return n + 1
    return 1 if z == _NILPOTENT or n % 2 == 0 else 0


def _mod_p_bound(elements: Matrix, pieces) -> int:
    """sum_p (k_p - rank_P(p)): the elements' systems on each piece, ranked over F_P from residues alone."""
    rows = [_residues(row, elements._real) for row in elements._ints]
    bound = 0
    for table, terms in zip(pieces, _residue_pieces(pieces)):
        k, size = table.reduced.rows, table.blocks.cols
        if k:
            bound += k - _rank_mod_p([_times_mod_p(row, terms, size) for row in rows], k)
    return bound


@lru_cache(maxsize=8)
def _residue_pieces(pieces) -> tuple:
    """The pieces' blocks as residue terms mod P (``_residue_terms``), made once.

    They turn the residues of an element's coordinate row into its system
    mod P, the residues of the rows that ``Matrix._product`` would give.
    """
    return tuple(_residue_terms(table.blocks) for table in pieces)


@lru_cache(maxsize=8)
def _invariant_rows(pieces) -> Matrix:
    """The forms every tangent kills: the rows of the pieces whose blocks are zero, made once.

    Those rows are invariant forms of every subalgebra; on I2 they are the
    piece V0 (x) V0, the span of ``full_invariant_forms()``.
    """
    invariants = [Matrix.zero(0, pieces[0].reduced.cols)]
    for table in pieces:
        if not any(table.blocks._right_terms()[1]):
            invariants.append(table.reduced)
    return Matrix.stack(invariants)


def _element_forms(elements: Matrix, tables) -> list[Matrix]:
    """2 B_XX, B_XY and 2 B_YY of one element, for each polarization table.

    Pair (j, l), j <= l, of FULL_BASIS takes c_j c_l in B_XY when j < 3 <= l,
    and in B_XX (both below 3) or B_YY (both from 3) it takes 2 c_j c_l, or
    c_j^2 when j = l, since the table holds D_j^T A D_l + D_l^T A D_j.  The
    three monomial rows of the lifted coordinate row c then meet the
    nonzero terms of each (real) table.
    """
    (c,), real = elements._ints, elements._real
    zero = 0 if real else (0, 0)
    rows = [[zero] * len(_PAIRS) for _ in range(3)]
    for k, (j, l) in enumerate(_PAIRS):
        if real:
            v = c[j] * c[l]
        else:
            (ar, ai), (br, bi) = c[j], c[l]
            v = (ar * br - ai * bi, ar * bi + ai * br)
        which = (j >= 3) + (l >= 3)  # B_XX, B_XY or B_YY
        if which != 1 and j != l:
            v = 2 * v if real else (2 * v[0], 2 * v[1])
        rows[which][k] = v
    out = []
    for table in tables:
        den, terms = table._right_terms()
        forms = _times_int(rows, terms, table.cols, real)
        out.append(Matrix._lifted(real, (den,) * 3, forms, table.cols))
    return out


_PAIRS = tuple((j, l) for j in range(6) for l in range(j, 6))


@lru_cache(maxsize=8)
def _polarizations(pieces) -> tuple[Matrix, ...] | None:
    """For each invariant form A of the pieces, the 21 x m table of upper(D_j^T A D_l + D_l^T A D_j).

    The pairs j <= l run over FULL_BASIS in ``_PAIRS`` order, with D_j its
    d_rep images, and the invariant forms are those of ``_invariant_rows``.
    For one element x = (X, Y), let D_X and D_Y be the images of (X, 0) and
    (0, Y).  Then B_XX = D_X^T A D_X, B_YY = D_Y^T A D_Y and
    B_XY = D_X^T A D_Y + D_Y^T A D_X are x-invariant: A is killed by each
    half alone, and D_X and D_Y commute, so for D = D_X + D_Y
    D^T B_XX + B_XX D = D_X^T (D_X^T A + A D_X) D_X + D_X^T (D_Y^T A + A D_Y) D_X = 0,
    and the same for the other two.  Each is quadratic in x's six
    coordinates, so its upper triangle is the monomials of x times this
    table (``_element_forms``).  The table is built once, when a solve
    first needs it, and only if every left basis image commutes with every
    right one and every row lies in the pieces' span (u = u[P] * R for the
    reduced row echelon form R of the span, with pivots P), and is real;
    otherwise there is none (None), and the exact path decides every solve.
    """
    images = _basis_images()
    d = [images.row(j).reshape(9, 9) for j in range(len(FULL_BASIS))]
    if any(d[j] * d[l] != d[l] * d[j] for j in range(3) for l in range(3, 6)):
        return None
    invariants = _invariant_rows(pieces)
    forms = (Matrix.symmetric(invariants.row(i)) for i in range(invariants.rows))
    tables = tuple(_polarization_rows(a, d) for a in forms)
    red, pivots = Matrix.stack([table.reduced for table in pieces]).rref()
    red = red.reindex(range(len(pivots)), range(red.cols))
    if any(not t.is_real or t.reindex(range(t.rows), pivots) * red != t for t in tables):
        return None
    return tables


def _polarization_rows(a: Matrix, d) -> Matrix:
    """upper(D_j^T a D_l + D_l^T a D_j) for the pairs j <= l, one row each; a symmetric."""
    rows = []
    for j in range(len(d)):
        left = d[j].transpose() * a
        for l in range(j, len(d)):
            m = left * d[l]  # D_l^T a D_j is its transpose
            rows.append((m + m.transpose()).upper())
    return Matrix.stack(rows)


def span_stabilizer(span: FormSpan) -> list[LieElement]:
    """A basis of the x in sl2+sl2 with D_x^T A + A D_x in the span for each basis form A.

    Read off the span's ActionTable over FULL_BASIS: x = sum_j x_j e_j maps
    the span into itself exactly when sum_j x_j E_j = 0, so the stabilizer
    is the kernel of the transposed residual blocks, one column per basis
    element (the entries of each row of ``blocks`` from k*k on).  The kernel
    basis is canonical: the identity at its free columns.
    """
    table = _full_action_table(span)
    blocks = table.blocks
    residual = blocks.reindex(range(blocks.rows), range(table.reduced.rows ** 2, blocks.cols))
    return [
        sum((c * b for c, b in zip(v, FULL_BASIS) if c), E)
        for v in kernel(residual.transpose()).entries()
    ]


def invariant_forms(g, ambient: FormSpan) -> FormSpan:
    """Invariant quadratic forms of a subalgebra of sl2+sl2 inside a span.

    The forms that x and y kill are killed by [x, y] too: d_rep is a Lie
    homomorphism, so D_[x,y] = [X, Y] for X = D_x and Y = D_y, and with
    M(D) = D^T A + A D,
    M([X, Y]) = Y^T M(X) - X^T M(Y) + M(X) Y - M(Y) X,
    which is zero when M(X) and M(Y) are.
    So the forms that the elements kill are those that the subalgebra g
    they generate kills, and when g is all of sl2+sl2 the answer is the
    span's forms that FULL_BASIS kills, solved once per span
    (``_full_forms``).  Whether it is comes from Goursat's lemma
    (``_generates_all``).  Write x_k = (X_k, Y_k) and B(X, X') = tr(X X').
    The projections of g onto the factors are the subalgebras of sl2 that
    the X_k and the Y_k generate.  A proper subalgebra of sl2 is 0, a line
    or a Borel, and a plane on which B is degenerate is the Borel N^perp
    of a nilpotent N; so the X_k generate sl2 iff they span it (some
    tr(X_k [X_l, X_n]) != 0) or span a plane on which B is not degenerate
    (some B(X_k, X_k) B(X_l, X_l) - B(X_k, X_l)^2 != 0).  When both
    projections are onto, g meets 0 + sl2 and sl2 + 0 in ideals of sl2,
    so g is everything, or the graph of an automorphism phi with
    Y_k = phi(X_k).  The automorphisms of sl2 are exactly the isometries of
    B of determinant 1 (Ad PSL2 = SO(3)), so a graph keeps every B(X_k, X_l)
    and every tr(X_k [X_l, X_n]).  Conversely, when all of them agree, the
    map X_k -> Y_k is an isometry between nondegenerate spans, which
    extends (Witt) to an isometry of sl2: of determinant 1, the ratio of
    the triple products, when the X_k span sl2, and made so by the
    reflection in the normal when they span a plane.  So g is everything
    iff both projections are onto and some B or triple product differs;
    a g of dimension 4 or more is no graph, so there only the projections
    count.  Any other verdict leaves the solve to ``solve_invariant``.
    """
    elements = _coordinate_rows(g)
    if elements.rows > 1 and _generates_all(elements):
        return _full_forms(ambient)
    return solve_invariant(elements, _full_pieces(ambient), _polarizations)


def _generates_all(elements: Matrix) -> bool:
    """Whether the elements' coordinate rows are proved to generate all of sl2+sl2 (``invariant_forms``).

    Each test is that a polynomial in the lifted coordinates, a Gaussian
    integer, is nonzero, or that two differ; its residue mod P being
    nonzero proves it (Dixon, as in ``_take_mod_p``).  A lifted row is one
    multiple of both its halves, so the comparisons of the two halves'
    B and triple products are those of the elements times one nonzero
    number.  On the (t, q, h) coordinates of a half, B is
    2hh' + tq' + qt' and tr(X_k [X_l, X_n]) is twice the determinant of the
    three rows.  More than three rows are first cut down to those that are
    independent modulo P (``_take_mod_p``); if more than three are left, g
    has dimension at least 4 and only the projections are tested.  A False
    proves nothing: a residue may vanish where the number does not.
    """
    rows = [_residues(flat, elements._real) for flat in elements._ints]
    if len(rows) > 3:
        leads = [None] * len(FULL_BASIS)
        rows = [row for row in rows if _take_mod_p(row.copy(), leads)]
    n = len(rows)
    x, y = _trace_invariants(rows)
    return (n > 3 or x != y) and _spans_sl2(x, n) and _spans_sl2(y, n)


def _trace_invariants(rows) -> tuple[list[int], list[int]]:
    """For each half of the residue rows, B(Z_k, Z_l) for k <= l and then det(Z_k, Z_l, Z_n) for k < l < n, mod P.

    A row is (t, q, h) of the left half and then of the right one; both
    halves are read in one pass.
    """
    x, y = [], []
    for k, (t, q, h, t_, q_, h_) in enumerate(rows):
        for t2, q2, h2, t2_, q2_, h2_ in rows[k:]:
            x.append(2 * h * h2 + t * q2 + q * t2)
            y.append(2 * h_ * h2_ + t_ * q2_ + q_ * t2_)
    for (t1, q1, h1, t1_, q1_, h1_), (t2, q2, h2, t2_, q2_, h2_), (t3, q3, h3, t3_, q3_, h3_) in combinations(rows, 3):
        x.append(t1 * (q2 * h3 - h2 * q3) + q1 * (h2 * t3 - t2 * h3) + h1 * (t2 * q3 - q2 * t3))
        y.append(t1_ * (q2_ * h3_ - h2_ * q3_) + q1_ * (h2_ * t3_ - t2_ * h3_) + h1_ * (t2_ * q3_ - q2_ * t3_))
    return _residues(x, True), _residues(y, True)


def _spans_sl2(values, n: int) -> bool:
    """Whether n rows of a half generate sl2, read off its ``_trace_invariants``.

    They do when a triple spans sl2, or a pair spans a plane on which B is
    not degenerate: B_kk B_ll - B_kl^2 != 0 mod P.
    """
    if any(values[n * (n + 1) // 2 :]):
        return True
    return any(_residues([values[a] * values[b] - values[c] * values[c] for a, b, c in _GRAM_PAIRS[n]], True))


def _gram_pairs(n: int) -> tuple[tuple[int, int, int], ...]:
    """For n rows, the places of B_kk, B_ll and B_kl among the B of ``_trace_invariants``, for each pair k < l."""
    upper = [(k, l) for k in range(n) for l in range(k, n)]
    return tuple((upper.index((k, k)), upper.index((l, l)), upper.index((k, l))) for k, l in combinations(range(n), 2))


_GRAM_PAIRS = tuple(_gram_pairs(n) for n in range(len(FULL_BASIS) + 1))


@lru_cache(maxsize=8)
def _full_forms(ambient: FormSpan) -> FormSpan:
    """The forms of a span that all of sl2+sl2 kills, one FULL_BASIS solve per span."""
    return solve_invariant(_coordinate_rows(FULL_BASIS), _full_pieces(ambient), _polarizations)


def full_invariant_forms() -> FormSpan:
    """The forms of i2_segre() invariant under all of sl2+sl2: the I2 entry of ``_full_forms``."""
    return _full_forms(i2_segre())


@lru_cache(maxsize=8)
def _full_action_table(ambient: FormSpan) -> ActionTable:
    """The ActionTable of FULL_BASIS on a span, built on its first query."""
    return action_table([d_rep(x) for x in FULL_BASIS], ambient)


@lru_cache(maxsize=8)
def _full_pieces(ambient: FormSpan) -> tuple[ActionTable, ...]:
    """The isotypic pieces of a span's full ActionTable, split on its first solve."""
    return isotypic_pieces(_full_action_table(ambient))


def real_basis(space: FormSpan, i: int) -> FormSpan:
    """Fixed forms of the antilinear involution induced by sigma_i.

    The span must be closed under the sigma_i action; the result is a basis
    of the fixed real form, whose real dimension equals the complex
    dimension of the input.
    """
    k = len(space)
    images = [space.coordinates_of(apply_sigma(i, q)) for q in space.basis]
    if None in images:
        raise ValueError("span is not closed under the sigma action")
    # fixed vectors c = M conj(c); split into real and imaginary parts
    mr = [[images[j][r].re for j in range(k)] for r in range(k)]
    mi = [[images[j][r].im for j in range(k)] for r in range(k)]
    big = [
        [mr[r][j] - (1 if r == j else 0) for j in range(k)] + [mi[r][j] for j in range(k)]
        for r in range(k)
    ] + [
        [mi[r][j] for j in range(k)] + [-mr[r][j] - (1 if r == j else 0) for j in range(k)]
        for r in range(k)
    ]
    rows = [
        [GaussianRational(vec[j].re, vec[k + j].re) for j in range(k)]
        for vec in kernel(Matrix(big)).entries()
    ]
    # no echelon normalization here: rescaling by complex units would break
    # the fixedness under the antilinear action that this basis certifies
    out = FormSpan(space.combinations(rows) if rows else (), coords=space.coords)
    if len(out) != k:
        raise ValueError("fixed locus has unexpected dimension")
    return out


NAMED_ALGEBRAS = {
    "so2xso2": (I * S1, I * S2),
    "so2xsx1": (I * S1, S2),
    "so2xse1": (I * S1, T2),
    "sl2xsl2": FULL_BASIS,
}
