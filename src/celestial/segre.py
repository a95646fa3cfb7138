"""The double Segre surface in P^8 and its quadratic-form calculus.

The surface is the closure of the monomial embedding of the torus

    (s, u)  ->  (1 : s : 1/s : u : 1/u : su : 1/(su) : s/u : u/s)

whose exponent vectors fill the 3x3 lattice square.  This module carries
the frozen coordinate order, the 20-dimensional space of quadrics through
the surface, the four standard antiholomorphic involutions sigma_i with
their companion coordinate changes mu_i into real frames, the symmetric
square representation of 2x2 matrix pairs on P^8, and toric projections
onto smaller coordinate subsets.  A span of quadrics (``FormSpan``) is
held as the coefficient rows of its forms, which the toric spans fill
straight from their lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import Matrix, GaussianRational, gauss, solve, ZERO, ONE, I
from .lattice import STANDARD_INVOLUTIONS

# torus exponents of y_0 .. y_8, in the frozen coordinate order
Y_EXPONENTS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
)

# sigma_i sends y to the point whose k-th coordinate is conj(y[PERM[k]]); on
# the torus it is the lattice involution STANDARD_INVOLUTIONS[i] composed with
# conjugation, so y_k goes to conj(y_j) with exponent(j) = inv(exponent(k))
SIGMA_PERMS: tuple[tuple[int, ...], ...] = tuple(
    tuple(Y_EXPONENTS.index(inv.apply(e)) for e in Y_EXPONENTS)
    for inv in STANDARD_INVOLUTIONS
)

# y_k = (s^2, st, t^2)[f] * (u^2, uw, w^2)[g] for (f, g) = Y_FACTORS[k]
Y_FACTORS: tuple[tuple[int, int], ...] = tuple((1 - a, 1 - b) for a, b in Y_EXPONENTS)

DEGREE2_MONOMIALS_2VARS: tuple[tuple[int, int], ...] = ((2, 0), (1, 1), (0, 2))


def torus_sigma(i: int, s: GaussianRational, u: GaussianRational):
    """The involution sigma_i on the torus: its lattice matrix applied to (conj s, conj u)."""
    if i not in range(len(STANDARD_INVOLUTIONS)):
        raise ValueError("sigma index must be 0..3")
    cs, cu = s.conjugate(), u.conjugate()
    return tuple(cs**a * cu**b for a, b in STANDARD_INVOLUTIONS[i].m)


@dataclass(frozen=True)
class MonomialParam:
    """Monomial parametrization: one Laurent exponent pair per coordinate.

    ``coords`` keeps the labels of the ambient coordinates (indices into the
    full 9-coordinate frame) so that projections remember where they live.
    """

    exponents: tuple[tuple[int, int], ...]
    coords: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.coords is None:
            object.__setattr__(self, "coords", tuple(range(len(self.exponents))))

    def __len__(self) -> int:
        return len(self.exponents)

    def eval(self, s, u) -> tuple[GaussianRational, ...]:
        s, u = gauss(s), gauss(u)
        if not s or not u:
            raise ValueError("torus parameters must be nonzero")
        return tuple(s**a * u**b for a, b in self.exponents)


SEGRE_PARAM = MonomialParam(Y_EXPONENTS)


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form: a symmetric matrix over Q(i).

    The form does not record its coordinates.  Forms are written in the
    torus coordinates y unless ``mu_transform`` moved them to the real
    frame x of some sigma_i; the caller that made a form knows which.
    """

    matrix: Matrix

    def __post_init__(self):
        if not self.matrix.is_symmetric:
            raise ValueError("quadratic form matrix must be symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def is_real(self) -> bool:
        return self.matrix.is_real

    def scale(self, c) -> "QuadraticForm":
        return QuadraticForm(self.matrix.scale(c))


def _upper_row(terms, dim: int) -> list[GaussianRational]:
    """The upper triangle, row by row, of sum c * y_a y_b over ((a, b), c) items."""
    row = [ZERO] * (dim * (dim + 1) // 2)
    for (a, b), c in terms:
        a, b = sorted((a, b))
        row[a * dim - a * (a - 1) // 2 + b - a] += gauss(c) if a == b else gauss(c) / 2
    return row


def form_from_pairs(terms, dim: int) -> QuadraticForm:
    """Build sum of c * y_a y_b from ((a, b), c) items."""
    return QuadraticForm(Matrix.symmetric(Matrix([_upper_row(terms, dim)])))


class FormSpan:
    """A linearly independent list of quadratic forms on the same coordinates.

    The span is held as ``coefficients``, one independent row per form (its
    upper triangle, row by row); ``basis``, the forms, is built from the rows
    on first read.  ``FormSpan(forms)`` checks the rank of the forms' rows;
    ``from_rows`` takes rows independent by construction and checks nothing.
    ``coords`` (keyword-only) labels the coordinates by their indices among
    the nine of P^8.  Spans compare with ``equals``; ``==`` and ``hash`` go
    by identity, so a span is a cheap cache key.
    """

    def __init__(self, forms, *, coords=None):
        forms = tuple(forms)
        n = forms[0].dim if forms else len(coords or ())
        self.coords = tuple(range(n) if coords is None else coords)
        if len(self.coords) != n:
            raise ValueError("coords do not match the size of the forms")
        rows = (q.matrix.upper() for q in forms)
        self.coefficients = Matrix.stack([Matrix.zero(0, n * (n + 1) // 2), *rows])
        if self.coefficients.rank() != len(forms):
            raise ValueError("form span basis is linearly dependent")
        self.basis = forms

    @classmethod
    def from_rows(cls, coeffs: Matrix, *, coords) -> "FormSpan":
        """The span whose ``coefficients`` are ``coeffs``, rows the caller knows independent."""
        span = cls.__new__(cls)
        span.coefficients, span.coords = coeffs, tuple(coords)
        return span

    def __len__(self) -> int:
        return self.coefficients.rows

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def basis(self) -> tuple[QuadraticForm, ...]:
        return self._forms(self.coefficients)

    @staticmethod
    def _forms(coeffs: Matrix) -> tuple[QuadraticForm, ...]:
        """The forms whose upper-triangle coefficient vectors are the rows."""
        return tuple(QuadraticForm(Matrix.symmetric(coeffs.row(i))) for i in range(coeffs.rows))

    def combinations(self, rows) -> tuple[QuadraticForm, ...]:
        """The forms sum_k row[k] * basis[k], one per coefficient row, in one product."""
        return self._forms(Matrix(rows) * self.coefficients)

    def combination(self, coeffs) -> QuadraticForm:
        """The form sum_k coeffs[k] * basis[k]."""
        return self.combinations([list(coeffs)])[0]

    def contains(self, q: QuadraticForm) -> bool:
        return self.coordinates_of(q) is not None

    def coordinates_of(self, q: QuadraticForm):
        """Coefficients of q in this basis, or None if outside the span."""
        return solve(self.coefficients, q.matrix.upper())

    @classmethod
    def row_space(cls, coeffs: Matrix, *, coords) -> "FormSpan":
        """The span of the forms whose upper triangles are the rows of ``coeffs``.

        Its basis is canonical: the nonzero rows of the reduced row echelon
        form, so two matrices with the same row space give the same span.
        """
        red, pivots = coeffs.rref()
        return cls.from_rows(red.reindex(range(len(pivots)), range(red.cols)), coords=coords)

    def equals(self, other: "FormSpan") -> bool:
        if len(self) != len(other) or self.dim != other.dim:
            return False
        return self.coefficients.rref()[0] == other.coefficients.rref()[0]


def _sum_fibers(points) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The fibers of the sum map (a <= b) -> points[a] + points[b], pairs in order."""
    n = len(points)
    fibers: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a in range(n):
        for b in range(a, n):
            key = (points[a][0] + points[b][0], points[a][1] + points[b][1])
            fibers.setdefault(key, []).append((a, b))
    return fibers


def toric_quadrics(param: MonomialParam) -> FormSpan:
    """The quadrics through a toric surface, read off its lattice points.

    Distinct Laurent monomials are linearly independent, so the degree-2
    ideal is spanned by the binomials y_a y_b - y_c y_d with
    e_a + e_b = e_c + e_d (Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 4), and a fiber of k pairs (a <= b) of the sum map gives k - 1 of
    them.  Each fiber's least pair is its root; every other pair is a leaf,
    and the form is root - leaf.  The forms are sorted by (root, leaf).
    """
    points = param.exponents
    diffs = {(a - c, b - d) for (a, b) in points for (c, d) in points}
    if Matrix([list(v) for v in diffs]).rank() < 2:
        raise ValueError("lattice points span a degenerate (1-dimensional) parametrization")
    fibers = _sum_fibers(points).values()
    edges = sorted((pairs[0], leaf) for pairs in fibers for leaf in pairs[1:])
    # each leaf lies in one fiber and is never a root, so its monomial is in
    # its own row alone: the rows are independent by construction
    n = len(points)
    rows = (Matrix([_upper_row([(root, 1), (leaf, -1)], n)]) for root, leaf in edges)
    return FormSpan.from_rows(Matrix.stack([Matrix.zero(0, n * (n + 1) // 2), *rows]), coords=param.coords)


@lru_cache(maxsize=1)
def i2_segre() -> FormSpan:
    """The 20-dimensional space of quadrics through the double Segre surface."""
    return toric_quadrics(SEGRE_PARAM)


def apply_sigma(i: int, obj):
    """Apply sigma_i to a point tuple or to a QuadraticForm.

    On points the coordinates are permuted and conjugated.  On forms this is
    the induced antilinear action A -> L^T conj(A) L, whose fixed vectors are
    the forms defined over the reals of the sigma_i frame.  L has
    L[k, perm[k]] = 1 and perm is an involution, so the product is the
    reindex (L^T conj(A) L)[a, b] = conj(A)[perm[a], perm[b]].
    """
    perm = SIGMA_PERMS[i]
    if isinstance(obj, QuadraticForm):
        if obj.dim != 9:
            raise ValueError("sigma acts on 9x9 forms")
        return QuadraticForm(obj.matrix.conjugate().reindex(perm, perm))
    pt = [gauss(x) for x in obj]
    return tuple(pt[perm[k]].conjugate() for k in range(9))


def _mu_rows(i: int) -> dict[int, dict[int, GaussianRational]]:
    h = gauss(Fraction(1, 2))
    if i == 0:
        return {k: {k: ONE} for k in range(9)}
    if i == 1:
        return {
            0: {0: ONE},
            1: {1: ONE, 2: I}, 2: {1: ONE, 2: -I},
            3: {3: ONE}, 4: {4: ONE},
            5: {5: ONE, 8: I}, 6: {7: ONE, 6: -I},
            7: {7: ONE, 6: I}, 8: {5: ONE, 8: -I},
        }
    if i == 2:
        return {
            0: {0: h},
            1: {1: ONE, 2: I}, 2: {1: ONE, 2: -I},
            3: {3: ONE, 4: I}, 4: {3: ONE, 4: -I},
            5: {5: ONE, 6: I}, 6: {5: ONE, 6: -I},
            7: {7: ONE, 8: -I}, 8: {7: ONE, 8: I},
        }
    if i == 3:
        return {
            0: {0: ONE},
            1: {3: ONE, 1: -I}, 2: {2: ONE, 4: I},
            3: {3: ONE, 1: I}, 4: {2: ONE, 4: -I},
            5: {5: ONE}, 6: {6: ONE},
            7: {8: ONE, 7: -I}, 8: {8: ONE, 7: I},
        }
    raise ValueError("mu index must be 0..3")


def mu_matrix(i: int, coords=None) -> Matrix:
    """The coordinate change y = M x, optionally restricted to a subset.

    Restriction is only legal when the kept y-coordinates involve only kept
    x-coordinates; the standard toric projections all satisfy this.
    """
    return _mu_matrix(i, tuple(range(9)) if coords is None else tuple(coords))


@lru_cache(maxsize=None)
def _mu_matrix(i: int, coords: tuple[int, ...]) -> Matrix:
    rows = _mu_rows(i)
    pos = {c: k for k, c in enumerate(coords)}
    out = [[ZERO] * len(coords) for _ in coords]
    for c in coords:
        for xc, val in rows[c].items():
            if xc not in pos:
                raise ValueError(f"mu_{i} does not restrict to coordinates {coords}")
            out[pos[c]][pos[xc]] = val
    return Matrix(out)


def mu_transform(i: int, q: QuadraticForm, coords=None) -> QuadraticForm:
    """Pull a y-frame form back to the x-frame: M^T A M.

    A complex residue in the output is legal and simply flags a form that is
    not defined over the reals of the sigma_i frame; callers inspect
    ``is_real`` when they care.
    """
    m = mu_matrix(i, coords)
    if m.rows != q.dim:
        raise ValueError("form dimension does not match the coordinate subset")
    return QuadraticForm(m.transpose() * q.matrix * m)


@lru_cache(maxsize=None)
def _degree2_frame(monomials) -> tuple[tuple[int, ...], Matrix]:
    """Where the degree-2 monomials sit in x (x) x.

    Entry k*n + l of x (x) x is x_k x_l.  Returns the entries k*n + l (k <= l)
    that are the monomials, in their order, and the fold matrix sending
    entry k*n + l to the monomial x_k x_l.
    """
    n = len(monomials[0])

    def exponents(k, l):
        e = [0] * n
        e[k] += 1
        e[l] += 1
        return tuple(e)

    index = {m: c for c, m in enumerate(monomials)}
    if len(index) != len(monomials) or set(index) != {
        exponents(k, l) for k in range(n) for l in range(k, n)
    }:
        raise ValueError("monomials must be all the degree-2 monomials in their variables")
    pairs = [[k for k in range(n) for _ in range(e[k])] for e in monomials]
    rows = tuple(k * n + l for k, l in pairs)
    fold = Matrix(
        [[int(index[exponents(k, l)] == c) for c in range(len(monomials))]
         for k in range(n) for l in range(n)]
    )
    return rows, fold


_identity = lru_cache(maxsize=None)(Matrix.identity)


def _on_degree2(tensor: Matrix, monomials) -> Matrix:
    """An operator on x (x) x, read on the degree-2 monomials in x."""
    rows, fold = _degree2_frame(tuple(monomials))
    if tensor.rows != len(monomials[0]) ** 2:
        raise ValueError("matrix size does not match the monomial variables")
    return tensor.reindex(rows, range(tensor.cols)) * fold


def sym2(phi: Matrix) -> Matrix:
    """The substitution action of a 2x2 matrix phi on (s^2, st, t^2): phi (x) phi folded."""
    return _on_degree2(phi.kron(phi), DEGREE2_MONOMIALS_2VARS)


def monomial_rep_derivative(g: Matrix, monomials) -> Matrix:
    """Derivative at the identity of the action of exp(t*g) on degree-2 monomials.

    By the product rule on exp(t*g) (x) exp(t*g) it is g (x) I + I (x) g,
    folded onto the monomials like ``sym2``.
    """
    one = _identity(g.rows)
    return _on_degree2(g.kron(one) + one.kron(g), monomials)


# y_k is row 3f + g of (s^2, st, t^2) (x) (u^2, uw, w^2), for (f, g) = Y_FACTORS[k]
_Y_KRON = tuple(3 * f + g for f, g in Y_FACTORS)


def y_order(m: Matrix) -> Matrix:
    """A 9x9 matrix on (s^2, st, t^2) (x) (u^2, uw, w^2), moved to the frozen y order."""
    return m.reindex(_Y_KRON, _Y_KRON)


def rep_S(phi1: Matrix, phi2: Matrix) -> Matrix:
    """Symmetric-square representation of a 2x2 matrix pair on P^8.

    The returned 9x9 matrix M satisfies M * lift(p) = lift(phi(p)) for every
    point p of P^1 x P^1, in the frozen y coordinate order: it is
    Sym^2 phi1 (x) Sym^2 phi2, reindexed.
    """
    for phi in (phi1, phi2):
        if phi.rows != 2 or phi.cols != 2:
            raise ValueError("factors must be 2x2")
        if not phi.det():
            raise ValueError("singular factor")
    return y_order(sym2(phi1).kron(sym2(phi2)))


def toric_projection(drop) -> FormSpan:
    """The quadrics through the projection that omits the dropped coordinates.

    The span is ``toric_quadrics`` of the kept lattice points, so it keeps
    exactly the generators that avoid every dropped variable, re-indexed
    to the surviving coordinates (its ``coords``).
    """
    drop = frozenset(drop)
    keep = tuple(k for k in range(9) if k not in drop)
    return toric_quadrics(MonomialParam(tuple(Y_EXPONENTS[k] for k in keep), keep))


def i2_dimension(param: MonomialParam) -> int:
    """Dimension of the degree-2 part of the ideal: n(n+1)/2 - |P + P|.

    The monomial y_a y_b restricts to the torus character of e_a + e_b, and
    distinct characters are linearly independent, so the quadrics through
    the surface are the kernel of the sum map (a <= b) -> e_a + e_b onto
    P + P, the map whose fibers ``toric_quadrics`` builds.
    """
    n = len(param)
    return n * (n + 1) // 2 - len(_sum_fibers(param.exponents))
