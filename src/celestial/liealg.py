"""sl2+sl2: brackets, real structures, and the invariant-form solver.

Elements are pairs of traceless 2x2 matrices over Q(i).  Differentiating
the symmetric-square action of 2x2 matrix pairs on P^8 turns each element
into a 9x9 matrix D; a quadratic form A in the ideal of the double Segre
surface is invariant under the corresponding 1-parameter subgroup exactly
when D^T A + A D = 0, so invariant forms of a subalgebra come out of one
exact kernel computation in the coefficient space of the ideal.
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
            if half.trace():
                raise ValueError("components must be traceless")

    def __add__(self, other: "LieElement") -> "LieElement":
        return LieElement(self.left + other.left, self.right + other.right)

    def scale(self, c) -> "LieElement":
        return LieElement(self.left.scale(c), self.right.scale(c))

    def __rmul__(self, c) -> "LieElement":
        return self.scale(c)

    def vec(self) -> tuple[GaussianRational, ...]:
        return tuple(x for m in (self.left, self.right) for row in m.entries() for x in row)

    @property
    def is_zero(self) -> bool:
        return not any(self.vec())


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


def span_contains(elements, x: LieElement) -> bool:
    if x.is_zero:
        return True
    rows = [e.vec() for e in elements]
    m = Matrix(rows)
    aug = Matrix(rows + [x.vec()])
    return m.rank() == aug.rank()


def solve_invariant(tangents, ambient: FormSpan) -> FormSpan:
    """Forms A in the ambient span with D^T A + A D = 0 for every tangent D.

    The solve stays in the coefficient space of the span.  ``coeffs`` holds
    the upper triangles of the forms left so far, one row per form; for a
    tangent D, ``exact.symmetric_images`` gives upper(D^T A + A D) of every
    row in one pass, and the combinations of rows that it kills are the
    kernel of its transpose.  Each tangent thus cuts down the rows the ones
    before it left, and one reduced row echelon form at the end makes the
    basis canonical, so the result does not depend on the order or the basis
    of the tangents.
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


def span_stabilizer(span: FormSpan) -> list[LieElement]:
    """A basis of the x in sl2+sl2 with D_x^T A + A D_x in the span for each basis form A.

    One linear system: the unknowns are the coordinates of x in FULL_BASIS
    and, for each basis form A_m, the coordinates c_mn of its image in the
    span, with sum_j x_j (D_j^T A_m + A_m D_j) - sum_n c_mn A_n = 0.  It is
    written one row per unknown and one column per equation (m, entry): the
    images of all basis forms under D_j, one ``symmetric_images`` call, are
    the row of x_j read row by row, and the rows of the c_mn are minus
    I_k (x) the coefficient matrix.  The basis is independent, so x fixes
    c, and the x parts of the kernel of its transpose are a basis of the
    stabilizer.
    """
    coeffs = span.coefficients
    images = [symmetric_images(coeffs, d_rep(x)).entries() for x in FULL_BASIS]
    flat = Matrix([[a for row in img for a in row] for img in images])
    system = Matrix.stack([flat, -Matrix.identity(len(span)).kron(coeffs)]).transpose()
    return [sum((c * b for c, b in zip(v, FULL_BASIS) if c), E) for v in kernel(system).entries()]


def invariant_forms(g, ambient: FormSpan) -> FormSpan:
    """Invariant quadratic forms of a subalgebra of sl2+sl2 inside a span."""
    return _invariant_forms_cached(tuple(g), ambient)


@lru_cache(maxsize=64)
def _invariant_forms_cached(basis, ambient: FormSpan) -> FormSpan:
    return solve_invariant([d_rep(x) for x in basis], ambient)


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
