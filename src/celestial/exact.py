"""Exact arithmetic over Q(i) and the dense linear algebra used everywhere else.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
On top of that sit Gaussian rationals, dense matrices, exact null spaces,
symmetric congruence diagonalization and signatures of real symmetric
matrices.  No floating point enters this module.

Entries are stored as Gaussian rationals, but the matrix kernels compute
over the Gaussian integers: ``_lift`` clears the denominators of each row,
products accumulate in Python ints, and elimination is fraction-free
(Bareiss 1968, Math. Comp. 22), so every intermediate entry stays a minor
of the lifted input.  ``_drop`` turns the result back into one Fraction per
output entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul

_GAUSS_RE = re.compile(
    r"""^\s*(?P<sign>[+-]?)\s*
        (?:(?P<num>\d+(?:/\d+)?)?\s*(?P<i>i)?)
        \s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element re + im*i of Q(i)."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """|z|^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}i"
        if not self.re:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse strings like '3', '-1/2', 'i', '2i', '1/2-3/4i'."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational")
        # split into signed terms
        terms = re.findall(r"[+-]?[^+-]+", s)
        re_part = Fraction(0)
        im_part = Fraction(0)
        for term in terms:
            m = _GAUSS_RE.match(term)
            if not m or (m.group("num") is None and m.group("i") is None):
                raise ValueError(f"cannot parse {text!r} as a Gaussian rational")
            mag = Fraction(m.group("num")) if m.group("num") else Fraction(1)
            if m.group("sign") == "-":
                mag = -mag
            if m.group("i"):
                im_part += mag
            else:
                re_part += mag
        return GaussianRational(re_part, im_part)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x))
    return None


def gauss(x) -> GaussianRational:
    """Coerce an int, Fraction, string or GaussianRational into Q(i)."""
    z = _coerce(x)
    if z is not None:
        return z
    if isinstance(x, str):
        return GaussianRational.parse(x)
    raise TypeError(f"cannot coerce {x!r} into Q(i)")


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# the Gaussian-integer core: a Gaussian integer is a Python int when the
# whole matrix is real, and an (re, im) pair of ints otherwise


def _lift(rows, common: bool = False):
    """Clear denominators: (real, dens, ints) with rows[i] == ints[i] / dens[i].

    ``real`` tells whether every entry is real, and so which kind of
    Gaussian integer ``ints`` holds; with ``common`` every row shares one
    denominator.
    """
    res = [[x.re.as_integer_ratio() for x in row] for row in rows]
    ims = [[x.im.as_integer_ratio() for x in row] for row in rows]
    real = not any(n for row in ims for n, _ in row)
    parts = res if real else map(list.__add__, res, ims)
    dens = [lcm(*[d for _, d in row]) for row in parts]
    if common:
        dens = [lcm(*dens)] * len(dens)
    out = [[n * (den // d) for n, d in row] for den, row in zip(dens, res)]
    if not real:
        out = [
            list(zip(nums, [n * (den // d) for n, d in row]))
            for nums, den, row in zip(out, dens, ims)
        ]
    return real, dens, out


def _pairs(rows):
    """Real Gaussian integers as (re, 0) pairs."""
    return [[(x, 0) for x in row] for row in rows]


def _drop(rows, dens, real: bool):
    """Rows of Gaussian rationals ints[i] / dens[i]; a den may be a pair if not real."""
    if real:
        return [
            [GaussianRational(Fraction(x, d)) if x else ZERO for x in row]
            for row, d in zip(rows, dens)
        ]
    out = []
    for row, d in zip(rows, dens):
        dr, di = d if isinstance(d, tuple) else (d, 0)
        n = dr * dr + di * di  # x / d = x * conj(d) / |d|^2
        out.append(
            [
                GaussianRational(Fraction(xr * dr + xi * di, n), Fraction(xi * dr - xr * di, n))
                if xr or xi else ZERO
                for xr, xi in row
            ]
        )
    return out


def _gauss_row_product(row, b, ncols: int):
    """row * b for Gaussian-integer pairs, skipping the zero entries of row."""
    sr = [0] * ncols
    si = [0] * ncols
    for (xr, xi), brow in zip(row, b):
        if xr or xi:
            for j, (yr, yi) in enumerate(brow):
                sr[j] += xr * yr - xi * yi
                si[j] += xr * yi + xi * yr
    return list(zip(sr, si))


def _combine_z(p, row, f, lead, prev, start):
    """(p*row - f*lead) / prev from column ``start`` on, over Z; exact."""
    if not f:
        if p == prev:
            return row
        return row[:start] + [p * a // prev for a in row[start:]]
    return row[:start] + [(p * a - f * b) // prev for a, b in zip(row[start:], lead[start:])]


def _combine_zi(p, row, f, lead, prev, start):
    """(p*row - f*lead) / prev from column ``start`` on, over Z[i]; exact."""
    if p == prev and f == (0, 0):
        return row
    pr, pi = p
    fr, fi = f
    qr, qi = prev
    n = qr * qr + qi * qi
    out = row[:start]
    for (ar, ai), (br, bi) in zip(row[start:], lead[start:]):
        xr = pr * ar - pi * ai - fr * br + fi * bi
        xi = pr * ai + pi * ar - fr * bi - fi * br
        out.append(((xr * qr + xi * qi) // n, (xi * qr - xr * qi) // n))
    return out


def _eliminate(m, ncols: int, real: bool, reduce: bool):
    """Fraction-free elimination of Gaussian-integer rows, in place.

    Every step rewrites each row it touches as (p*row - f*lead) / prev, with
    p the new pivot, f the row's entry in the pivot column and prev the
    pivot of the step before; the division is exact because every entry is
    a minor of the input.  Without ``reduce`` only the rows below a pivot
    are cleared (Bareiss); with it the rows above too (Gauss-Jordan), and
    then every pivot row ends with the last pivot in its pivot column.
    Returns the pivot columns, the last pivot and the number of row swaps.
    """
    combine = _combine_z if real else _combine_zi
    zero = 0 if real else (0, 0)
    prev = 1 if real else (1, 0)
    pivots = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        lead = m[r]
        p = lead[c]
        for i in range(0 if reduce else r + 1, len(m)):
            if i != r:
                m[i] = combine(p, m[i], m[i][c], lead, prev, 0 if i < r else c)
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev, swaps


class Matrix:
    """Dense immutable matrix over Q(i), row major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries):
        self._e = tuple(tuple(gauss(x) for x in row) for row in entries)
        self.rows = len(self._e)
        self.cols = len(self._e[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self._e):
            raise ValueError("ragged rows")

    @classmethod
    def _raw(cls, rows):
        # internal fast path: rows must already hold GaussianRational entries
        obj = object.__new__(cls)
        obj._e = tuple(tuple(row) for row in rows)
        obj.rows = len(obj._e)
        obj.cols = len(obj._e[0]) if obj._e else 0
        return obj

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def column(entries) -> "Matrix":
        return Matrix([[x] for x in entries])

    def entries(self):
        return self._e

    def column_vector(self) -> tuple:
        if self.cols != 1:
            raise ValueError("not a column vector")
        return tuple(row[0] for row in self._e)

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self._e[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix._raw(
            [a + b if a and b else a or b for a, b in zip(ra, rb)]
            for ra, rb in zip(self._e, other._e)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix._raw(
            [a - b if b else a for a, b in zip(ra, rb)] for ra, rb in zip(self._e, other._e)
        )

    def __neg__(self) -> "Matrix":
        return Matrix._raw([-a for a in row] for row in self._e)

    def _check_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("incompatible shapes for product")
            real_a, dens, a = _lift(self._e)
            real_b, dens_b, b = _lift(other._e, common=True)
            db = dens_b[0] if dens_b else 1
            real = real_a and real_b
            if not real:
                a, b = (_pairs(a) if real_a else a), (_pairs(b) if real_b else b)
            if real:
                cols = list(zip(*b))
                out = [[sum(map(mul, row, col)) for col in cols] for row in a]
            else:
                out = [_gauss_row_product(row, b, other.cols) for row in a]
            return Matrix._raw(_drop(out, [d * db for d in dens], real))
        return NotImplemented

    def scale(self, c) -> "Matrix":
        c = gauss(c)
        return Matrix._raw([c * a if a else a for a in row] for row in self._e)

    def transpose(self) -> "Matrix":
        return Matrix._raw(zip(*self._e))

    def conjugate(self) -> "Matrix":
        return Matrix._raw([a.conjugate() for a in row] for row in self._e)

    def trace(self) -> GaussianRational:
        return sum((self._e[i][i] for i in range(min(self.rows, self.cols))), ZERO)

    @property
    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self._e[i][j] == self._e[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    @property
    def is_real(self) -> bool:
        return all(a.is_real for row in self._e for a in row)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        real, _, m = _lift(self._e)
        pivots, last, _ = _eliminate(m, self.cols, real, reduce=True)
        rank = len(pivots)
        zero_rows = [[ZERO] * self.cols for _ in range(self.rows - rank)]
        return Matrix._raw(_drop(m[:rank], [last] * rank, real) + zero_rows), tuple(pivots)

    def rank(self) -> int:
        real, _, m = _lift(self._e)
        return len(_eliminate(m, self.cols, real, reduce=False)[0])

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        real, dens, m = _lift(self._e)
        pivots, last, swaps = _eliminate(m, self.cols, real, reduce=False)
        if len(pivots) < self.rows:
            return ZERO
        det = _drop([[last]], [prod(dens)], real)[0][0]
        return -det if swaps % 2 else det

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(a) for a in row) for row in self._e)
        return f"Matrix[{body}]"


def kernel(m: Matrix) -> list[Matrix]:
    """Exact basis of the right null space {v : m*v = 0}, as column vectors."""
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(Matrix.column(v))
    return basis


def solve(m: Matrix, rhs: Matrix):
    """One exact solution of m*x = rhs (column), or None if inconsistent."""
    aug = Matrix._raw(row + (rhs[i, 0],) for i, row in enumerate(m.entries()))
    red, pivots = aug.rref()
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red[r, m.cols]
    return Matrix.column(x)


@dataclass(frozen=True, slots=True)
class Signature:
    """Inertia of a real symmetric matrix, normalized so pos <= neg.

    A quadric V(q) equals V(-q), so (pos, neg) and (neg, pos) describe the
    same hypersurface; the normalized representative keeps comparisons
    well-defined.
    """

    pos: int
    neg: int
    zero: int = 0

    def normalized(self) -> "Signature":
        if self.pos > self.neg:
            return Signature(self.neg, self.pos, self.zero)
        return self

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    def __str__(self) -> str:
        return f"({self.pos},{self.neg})" + (f"+0^{self.zero}" if self.zero else "")


def _require_real_symmetric(a: Matrix) -> None:
    if a.rows != a.cols:
        raise ValueError("matrix is not square")
    if not a.is_real:
        raise ValueError("matrix has imaginary entries; move the form to a real frame first")
    if not a.is_symmetric:
        raise ValueError("matrix is not symmetric")


def congruence_diagonalize(a: Matrix) -> tuple[Matrix, Matrix]:
    """Exact congruence P^T * a * P = D with D diagonal and P invertible.

    Symmetric fraction-free elimination on the integer matrix den*a: each
    step replaces column and row j by (p*col_j - f*col_k) / prev, the
    Bareiss update, so P stays integral and D[k, k] = prev * p / den, which
    has the sign of the pivot p / prev of rational elimination.  A zero
    diagonal pivot with a nonzero off-diagonal partner is repaired by the
    classical e_k -> e_k + e_j substitution.  D is one diagonal form
    congruent to a, not a canonical one.
    """
    _require_real_symmetric(a)
    n = a.rows
    _, dens, w = _lift(a.entries(), common=True)
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

    den = dens[0] if dens else 1
    d = [[ZERO] * n for _ in range(n)]
    for k, x in enumerate(diag):
        d[k][k] = GaussianRational(Fraction(x, den)) if x else ZERO
    return Matrix._raw(d), Matrix._raw(_drop(zip(*cols), [1] * n, real=True))


def signature(a: Matrix) -> Signature:
    """Normalized inertia of a real symmetric matrix, via exact congruence."""
    d, _ = congruence_diagonalize(a)
    pos = sum(1 for i in range(a.rows) if d[i, i].re > 0)
    neg = sum(1 for i in range(a.rows) if d[i, i].re < 0)
    return Signature(pos, neg, a.rows - pos - neg).normalized()
