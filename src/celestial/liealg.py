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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import Matrix, GaussianRational, kernel, symmetric_images, I
from .segre import (
    DEGREE2_MONOMIALS_2VARS,
    FormSpan,
    apply_sigma,
    monomial_rep_derivative,
    y_order,
)


def _m2(a, b, c, d) -> Matrix:
    return Matrix([[a, b], [c, d]])


_E2 = _m2(0, 0, 0, 0)
_T = _m2(0, 1, 0, 0)
_Q = _m2(0, 0, 1, 0)
_S = _m2(1, 0, 0, -1)
_I3 = Matrix.identity(3)


@dataclass(frozen=True)
class LieElement:
    """A pair of traceless 2x2 matrices over Q(i)."""

    left: Matrix
    right: Matrix

    def __post_init__(self):
        for half in (self.left, self.right):
            if half.rows != 2 or half.cols != 2:
                raise ValueError("components must be 2x2")
            (a, _), (_, d) = half.entries()
            if a + d:
                raise ValueError("components must be traceless")

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.left + other.left, self.right + other.right)

    def scale(self, c) -> "LieElement":
        return LieElement(self.left.scale(c), self.right.scale(c))

    def __rmul__(self, c) -> "LieElement":
        return self.scale(c)

    def coordinates(self) -> tuple[GaussianRational, ...]:
        """The coefficients of the element in FULL_BASIS order.

        A traceless [[a, b], [c, -a]] is a*S + b*T + c*Q, so each side gives (b, c, a).
        """
        (la, lb), (lc, _) = self.left.entries()
        (ra, rb), (rc, _) = self.right.entries()
        return (lb, lc, la, rb, rc, ra)


T1 = LieElement(_T, _E2)
Q1 = LieElement(_Q, _E2)
S1 = LieElement(_S, _E2)
T2 = LieElement(_E2, _T)
Q2 = LieElement(_E2, _Q)
S2 = LieElement(_E2, _S)
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


def d_rep(m: LieElement) -> Matrix:
    """Derivative at the identity of the symmetric-square action on P^8.

    By the product rule it is D_left (x) I + I (x) D_right in the frozen y
    order, with D the derivative of each factor's action on (s^2, st, t^2).
    """
    dl = monomial_rep_derivative(m.left, DEGREE2_MONOMIALS_2VARS)
    dr = monomial_rep_derivative(m.right, DEGREE2_MONOMIALS_2VARS)
    return y_order(dl.kron(_I3) + _I3.kron(dr))


@dataclass(frozen=True, eq=False)
class ActionTable:
    """Tangents D_j acting on a span of forms, in the span's own coordinates.

    ``reduced`` is R, the rows of the reduced row echelon basis of the span
    (one upper triangle per row, k rows) with pivot columns P, taken in an
    order that helps elimination (see ``action_table``).  The images
    upper(D_j^T A + A D_j) of the rows of R split exactly as Phi_j R + E_j:
    Phi_j is the k x k block of the images at the columns P, and the
    residual E_j, the part that leaves the span, is zero at P.
    ``residual`` lists the columns where some E_j is not zero; there are
    none when every D_j maps the span into itself, as sl2+sl2 does I2.
    Row j of ``blocks`` is [Phi_j | E_j at those columns] transposed, a
    (k + len(residual)) x k matrix, read row by row; so the system of an
    element x = sum c_j D_j is the row c * blocks, reshaped.
    """

    reduced: Matrix
    residual: tuple[int, ...]
    blocks: Matrix
    coords: tuple[int, ...]


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
    images = [symmetric_images(red, d) for d in tangents]
    degree = [0] * k
    for img in images:
        for i, row in enumerate(img.reindex(range(k), pivots).entries()):
            for c, x in enumerate(row):
                if x:
                    degree[i] += 1
                    degree[c] += 1
    order = sorted(range(k), key=degree.__getitem__)
    red = red.reindex(order, range(m))
    splits = []
    for img in images:
        img = img.reindex(order, range(m))
        phi = img.reindex(range(k), [pivots[i] for i in order])
        splits.append((phi, img - phi * red))
    residual = tuple(sorted(set().union(*(res.nonzero_columns() for _, res in splits))))
    size = (k + len(residual)) * k
    flat = [
        Matrix.stack([phi.transpose(), res.reindex(range(k), residual).transpose()]).reshape(1, size)
        for phi, res in splits
    ]
    blocks = Matrix.stack([Matrix.zero(0, size), *flat])
    return ActionTable(red, residual, blocks, ambient.coords)


def solve_invariant(elements, table: ActionTable) -> FormSpan:
    """Forms A in the table's span with D^T A + A D = 0 for every element's D.

    ``elements`` holds one coordinate row per element, in the table's
    tangents.  An element acts on the span as the row c * blocks, read back
    as the system [Phi | E]^T of the table; the combinations of R's rows
    that it kills are its kernel.  Each later element acts on the kept
    combinations K R through the system times K^T, and the kernel cuts K
    down.  One reduced row echelon form of K R at the end makes the basis
    canonical, so the result does not depend on the order or the basis of
    the elements.
    """
    red = table.reduced
    k = red.rows
    width = k + len(table.residual)
    keep = None  # the kept combinations K of the rows of R; all of them at first
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
    """Invariant quadratic forms of a subalgebra of sl2+sl2 inside a span."""
    return solve_invariant([x.coordinates() for x in g], _full_action_table(ambient))


@lru_cache(maxsize=8)
def _full_action_table(ambient: FormSpan) -> ActionTable:
    """The ActionTable of FULL_BASIS on a span, built on its first query."""
    return action_table([d_rep(x) for x in FULL_BASIS], ambient)


def real_basis(space: FormSpan, i: int) -> FormSpan:
    """Fixed forms of the antilinear involution induced by sigma_i.

    The span must be closed under the sigma_i action; the result is a basis
    of the fixed real form, whose real dimension equals the complex
    dimension of the input.
    """
    k = len(space.basis)
    if k == 0:
        return space
    images = []
    for q in space.basis:
        coeffs = space.coordinates_of(apply_sigma(i, q))
        if coeffs is None:
            raise ValueError("span is not closed under the sigma action")
        images.append(coeffs)
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
    forms = []
    for vec in kernel(Matrix(big)).entries():
        coeffs = [GaussianRational(vec[j].re, vec[k + j].re) for j in range(k)]
        forms.append(space.combination(coeffs))
    # no echelon normalization here: rescaling by complex units would break
    # the fixedness under the antilinear action that this basis certifies
    out = FormSpan(tuple(forms), coords=space.coords)
    if len(out.basis) != k:
        raise ValueError("fixed locus has unexpected dimension")
    return out


NAMED_ALGEBRAS = {
    "so2xso2": (I * S1, I * S2),
    "so2xsx1": (I * S1, S2),
    "so2xse1": (I * S1, T2),
    "sl2xsl2": FULL_BASIS,
}
