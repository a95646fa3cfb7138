"""Exact arithmetic over Q(i) and the dense linear algebra used everywhere else.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator).
On top of that sit Gaussian rationals, dense matrices, exact null spaces,
symmetric congruence diagonalization and signatures of real symmetric
matrices.  No floating point enters this module.

A matrix is stored over the Gaussian integers: each row is a tuple of
Gaussian integers over one positive denominator (``_lift`` clears the
denominators of given entries), and every operation computes on that form.
Products accumulate in Python ints, and elimination is fraction-free
(Bareiss 1968, Math. Comp. 22), so every intermediate entry stays a minor
of the lifted input.  ``_drop`` makes the Gaussian-rational entries, once
per matrix, when they are first read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import itemgetter

_GAUSS_RE = re.compile(
    r"""^\s*(?P<sign>[+-]?)\s*
        (?:(?P<num>\d+(?:/\d+)?)?\s*(?P<i>i)?)
        \s*$""",
    re.VERBOSE,
)

_setattr = object.__setattr__  # bound once for the hot constructors of this module


class Record:
    """A frozen value: equal, and equally hashed, when its class and compared fields are.

    ``_fields`` names the fields in order; ``repr`` shows them all as
    ``Name(field=value, ...)``, and ``==`` and ``hash`` go by the tuple
    ``_key()``, every field unless a subclass compares fewer.  A subclass's
    ``__init__`` sets its fields with ``object.__setattr__``, since
    assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class GaussianRational(Record):
    """An element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        _setattr(self, "re", re)
        _setattr(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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
        # split into signed terms, which must cover the text: no stray sign
        terms = re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise ValueError(f"cannot parse {text!r} as a Gaussian rational")
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


def _ratios(x):
    """(re, im) of an element of Q(i), each as an (int numerator, int denominator) ratio."""
    if isinstance(x, GaussianRational):
        return x.re.as_integer_ratio(), x.im.as_integer_ratio()
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio(), (0, 1)
    return _ratios(gauss(x))


def _lift(rows):
    """Clear denominators: (real, dens, ints) with rows[i] == ints[i] / dens[i].

    Entries are anything ``gauss`` accepts.  ``real`` tells whether every
    entry is real, and so which kind of Gaussian integer ``ints`` holds.
    Each den is the lcm of its row's reduced denominators, so it is coprime
    to the row: the canonical form.  Rows of ints alone are that form
    already, over 1.
    """
    if all(type(x) is int for row in rows for x in row):
        return True, (1,) * len(rows), tuple(map(tuple, rows))
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


def _drop(real: bool, dens, rows):
    """Rows of Gaussian rationals ints[i] / dens[i], for nonzero int dens."""
    if real:
        return tuple(
            tuple(GaussianRational(Fraction(x, d)) if x else ZERO for x in row)
            for row, d in zip(rows, dens)
        )
    return tuple(
        tuple(
            GaussianRational(Fraction(xr, d), Fraction(xi, d)) if xr or xi else ZERO
            for xr, xi in row
        )
        for row, d in zip(rows, dens)
    )


def _canonical(real: bool, dens, rows):
    """The canonical lifted form of rows[i] / dens[i] (nonzero int dens).

    ``real`` becomes exact (no pair rows without an imaginary part), and
    each row is divided by its common factor with its den, made positive;
    a zero row becomes zeros over 1.
    """
    if not real and not any(map(itemgetter(1), chain.from_iterable(rows))):
        real = True
        rows = [[xr for xr, _ in row] for row in rows]
    out_dens, out_rows = [], []
    for d, row in zip(dens, rows):
        g = gcd(d, *row) if real else gcd(d, *chain.from_iterable(row))
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            row = [x // g for x in row] if real else [(xr // g, xi // g) for xr, xi in row]
        out_dens.append(d)
        out_rows.append(tuple(row))
    return real, tuple(out_dens), tuple(out_rows)


def _pairs(rows):
    """Real Gaussian integers as (re, 0) pairs."""
    return tuple(tuple((x, 0) for x in row) for row in rows)


def _scaled(row, f: int, real: bool):
    """row * f for an int f; row itself if f is 1."""
    if f == 1:
        return row
    if real:
        return [x * f for x in row]
    return [(xr * f, xi * f) for xr, xi in row]


def _canonical_over(real: bool, rows, dens):
    """The canonical lifted form of rows[i] / dens[i], for nonzero Gaussian integers dens[i].

    One pass that touches only the nonzero entries: over a non-real den p,
    x / p = x * conj(p) / |p|^2, while a real den divides as it is; each
    row is then divided by its common factor with its den, made positive,
    and the rows become ints when no imaginary part is left.  Dens of ints
    (``real``) go to ``_canonical`` as they are.
    """
    if real:
        return _canonical(True, dens, rows)
    zero = (0, 0)
    out_dens, out_rows = [], []
    for (pr, pi), row in zip(dens, rows):
        if pi:
            d = pr * pr + pi * pi
            row = [(xr * pr + xi * pi, xi * pr - xr * pi) if xr or xi else zero for xr, xi in row]
        else:
            d = pr
        g = gcd(d, *chain.from_iterable(row))
        if d < 0:
            g = -g
        if g != 1:
            d //= g
            row = [(xr // g, xi // g) if xr or xi else zero for xr, xi in row]
        out_dens.append(d)
        out_rows.append(row)
    if any(map(itemgetter(1), chain.from_iterable(out_rows))):
        return False, tuple(out_dens), tuple(map(tuple, out_rows))
    return True, tuple(out_dens), tuple(tuple(xr for xr, _ in row) for row in out_rows)


def _gauss_row_product(row, terms, ncols: int, real_row: bool):
    """row * b for the nonzero ``(column, re, im)`` terms of each row of b.

    The entries of row are ints if ``real_row``, else pairs; zero entries of
    row and of b are skipped.
    """
    sr = [0] * ncols
    si = [0] * ncols
    for x, ts in zip(row, terms):
        xr, xi = (x, 0) if real_row else x
        if xi:
            for j, yr, yi in ts:
                sr[j] += xr * yr - xi * yi
                si[j] += xr * yi + xi * yr
        elif xr:
            for j, yr, yi in ts:
                sr[j] += xr * yr
                si[j] += xr * yi
    return list(zip(sr, si))


def _row_terms(rows, real: bool):
    """The nonzero entries of each row, the form of a right factor.

    They are ``(column, int)`` pairs if ``real``, else ``(column, re, im)``
    triples.
    """
    if real:
        return tuple(tuple((j, y) for j, y in enumerate(row) if y) for row in rows)
    return tuple(tuple((j, yr, yi) for j, (yr, yi) in enumerate(row) if yr or yi) for row in rows)


def _times_int(rows, terms, ncols: int, real_rows: bool):
    """rows * b for the nonzero ``(column, entry)`` terms of each row of an int matrix b.

    The entries of rows are ints if ``real_rows``, else pairs.  Each nonzero
    entry of a row meets only the nonzero entries of its row of b.
    """
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


def _combine_z(p, row, f, lead, q, start):
    """(p*row - f*lead) / q from column ``start`` on, over Z; exact.

    An entry whose lead entry is zero takes the one-term update p*a / q,
    and one where both are zero stays zero.
    """
    if not f:
        if p == q:
            return row
        return row[:start] + [p * a // q if a else 0 for a in row[start:]]
    return row[:start] + [
        (p * a - f * b) // q if b else (p * a // q if a else 0)
        for a, b in zip(row[start:], lead[start:])
    ]


def _combine_zi(p, row, f, lead, q, start):
    """(p*row - f*lead) / q from column ``start`` on, over Z[i]; exact.

    As in ``_combine_z``, a zero lead entry drops the f*lead terms and a
    zero pair of entries stays zero.
    """
    if p == q and f == (0, 0):
        return row
    pr, pi = p
    fr, fi = f
    qr, qi = q
    n = qr * qr + qi * qi
    out = row[:start]
    for (ar, ai), (br, bi) in zip(row[start:], lead[start:]):
        if br or bi:
            xr = pr * ar - pi * ai - fr * br + fi * bi
            xi = pr * ai + pi * ar - fr * bi - fi * br
        elif ar or ai:
            xr = pr * ar - pi * ai
            xi = pr * ai + pi * ar
        else:
            out.append((0, 0))
            continue
        out.append(((xr * qr + xi * qi) // n, (xi * qr - xr * qi) // n))
    return out


def _nonzero_pairs(row) -> bool:
    return any(map(any, row))


def _eliminate(rows, ncols: int, real: bool, reduce: bool):
    """Fraction-free elimination of Gaussian-integer rows.

    This is Bareiss elimination with each row left at the last step that
    rewrote it.  A step with pivot p rewrites a row whose entry f in the
    pivot column is nonzero as (p*row - f*lead) / q, with q the pivot the
    row was last rewritten with (1 at first), and leaves the other rows
    alone.  The result is the row of the classical scheme, which would have
    scaled the row by prev/q in the skipped steps, so the division is exact:
    every entry is a minor of the input.  Without ``reduce`` only the rows
    below a pivot are cleared; with it the rows above too (Gauss-Jordan),
    and then each pivot row over its q is a row of the reduced echelon
    form.  A row that is or becomes zero is dropped: it can never become a
    pivot row, and callers read only the pivot rows.  Returns the pivot rows,
    their q, the pivot columns, the last pivot and the number of row swaps.
    """
    combine = _combine_z if real else _combine_zi
    nonzero = any if real else _nonzero_pairs
    zero = 0 if real else (0, 0)
    prev = 1 if real else (1, 0)
    m = [list(row) for row in rows if nonzero(row)]
    levels = [prev] * len(m)
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
            levels[r], levels[piv] = levels[piv], levels[r]
            swaps += 1
        if levels[r] != prev:  # the skipped scalings of the pivot row
            m[r] = combine(prev, m[r], zero, m[r], levels[r], 0)
        lead = m[r]
        p = lead[c]
        if reduce:
            for i in range(r):
                f = m[i][c]
                if f != zero:
                    m[i] = combine(p, m[i], f, lead, levels[i], 0)
                    levels[i] = p
        below, below_levels = [], []
        for row, q in zip(m[r + 1 :], levels[r + 1 :]):
            f = row[c]
            if f != zero:
                row, q = combine(p, row, f, lead, q, c), p
                if not nonzero(row):
                    continue
            below.append(row)
            below_levels.append(q)
        m[r + 1 :], levels[r + 1 :] = below, below_levels
        levels[r] = prev = p
        pivots.append(c)
        r += 1
    return m[:r], levels[:r], pivots, prev, swaps


def _null_rows(rows, ncols: int, real: bool):
    """A basis of {v : rows * v = 0} over the Gaussian integers, and its free entry D.

    Forward elimination leaves the pivot rows U in echelon form, the pivot
    of each the leading minor of the rows and pivot columns so far; the
    last, D, is the pivot minor of the whole matrix.  For each free column
    f, back substitution from the last pivot row up sets v = D at f and 0
    at the other free columns, then at the pivot p of row r
    v[p] = -(U_r . v) / U_r[p] over the entries set so far.  So v is D times
    the null vector that is 1 at f, which Cramer's rule makes integral: every
    division is exact.  A step whose sum is zero leaves v[p] zero.
    """
    m, _, pivots, last, _ = _eliminate(rows, ncols, real, reduce=False)
    steps = list(zip(m, pivots))[::-1]
    zero = 0 if real else (0, 0)
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[f] = last
        nonzero = [f]
        for row, p in steps:
            if real:
                t = sum([row[j] * v[j] for j in nonzero])
                if t:
                    v[p] = -t // row[p]
                    nonzero.append(p)
                continue
            tr = ti = 0
            for j in nonzero:
                (ar, ai), (br, bi) = row[j], v[j]
                tr += ar * br - ai * bi
                ti += ar * bi + ai * br
            if tr or ti:  # -t / q = -t * conj(q) / |q|^2
                qr, qi = row[p]
                n = qr * qr + qi * qi
                v[p] = (-(tr * qr + ti * qi) // n, (tr * qi - ti * qr) // n)
                nonzero.append(p)
        basis.append(v)
    return basis, last


def _times(rows, right, ncols: int, real: bool):
    """rows * right for Gaussian-integer rows of one kind, ints if ``real``."""
    terms = _row_terms(right, real)
    if real:
        return _times_int(rows, terms, ncols, True)
    return [_gauss_row_product(row, terms, ncols, False) for row in rows]


# A prime P = 1 (mod 4) and a square root S of -1 modulo P: i -> S is a ring
# homomorphism Z[i] -> F_P, and a product of two residues fits one CPython digit.
_P = 32749
_S = 15645


def _residues(flat, real: bool) -> list[int]:
    """Gaussian integers of one kind (ints if ``real``) mapped into F_P by i -> S."""
    if real:
        return [x % _P for x in flat]
    return [(xr + _S * xi) % _P for xr, xi in flat]


def _residue_terms(m) -> tuple:
    """The nonzero ``(column, residue)`` terms of m's rows over their common den, a right factor mod P.

    Those rows are Gaussian integers, so no inverse mod P is needed.
    """
    _, terms = m._right_terms()
    if m._real:
        rows = ([(j, y % _P) for j, y in ts] for ts in terms)
    else:
        rows = ([(j, (yr + _S * yi) % _P) for j, yr, yi in ts] for ts in terms)
    return tuple(tuple((j, r) for j, r in row if r) for row in rows)


def _times_mod_p(row, terms, ncols: int) -> list[int]:
    """row * b over F_P: a row of residues, and the nonzero ``(column, residue)`` terms of b's rows."""
    acc = [0] * ncols
    for x, ts in zip(row, terms):
        if x:
            for j, y in ts:
                acc[j] += x * y
    return [v % _P for v in acc]


def _take_mod_p(row, basis) -> bool:
    """Reduce a row of residues against an echelon basis over F_P, and take it (True) if it stays nonzero.

    basis[c] is None, or the nonzero ``(column, residue)`` entries right of
    c of an echelon row that is 1 at c and 0 before it.  The row is reduced
    in place, only where a basis row is nonzero and never left of its pivot,
    where nothing is read again.  At its first entry left nonzero with no
    basis row, the row scaled to 1 there becomes that basis row.

    Rows taken are independent over F_P, and so over Q(i) are the Gaussian
    integers their residues came from: a minor that is nonzero mod P is
    nonzero over Z[i] (Dixon, Numer. Math. 40, 1982).  The converse fails
    when every larger minor is divisible by a prime of Z[i] over P, so a
    count of the rows taken bounds the rank over Q(i) from below only.
    """
    for c, lead in enumerate(basis):
        f = row[c]
        if not f:
            continue
        if lead is None:
            inv = pow(f, -1, _P)
            basis[c] = [(j, row[j] * inv % _P) for j in range(c + 1, len(basis)) if row[j]]
            return True
        for j, y in lead:
            row[j] = (row[j] - f * y) % _P
    return False


def _rank_mod_p(systems, ncols: int) -> int:
    """The rank over F_P of the rows of the stacked systems of residues, counted up to ncols.

    Each system is a list of residues read row by row, ``ncols`` a row.  The
    rows are taken one by one (``_take_mod_p``), and the count stops once
    ncols pivots are found, so later systems are never read.  So ncols is a
    proof of full rank over Q(i), and a smaller count a lower bound only.
    """
    basis = [None] * ncols
    rank = 0
    for flat in systems:
        for start in range(0, len(flat), ncols):
            if _take_mod_p(flat[start : start + ncols], basis):
                rank += 1
                if rank == ncols:
                    return rank
    return rank


def _common_kernel(systems, ncols: int, real: bool):
    """Rows K over the Gaussian integers spanning the vectors that every system kills.

    Each of ``systems`` is one system read row by row, ``ncols`` entries a
    row, as Gaussian integers of one kind (ints if ``real``).  Zero systems
    kill everything and are skipped; with none left the result is None.

    K is the kernel of the first nonzero system, and each later one S cuts
    it down to ker(S K^T) K, since c K is killed by S exactly when c is
    killed by S K^T; an empty K ends the cut.  The rows of K are a basis,
    not a canonical one; each is divided by the content of its entries, so
    the products of later cuts stay small.
    """
    nonzero = any if real else _nonzero_pairs
    keep = None
    for flat in systems:
        if not nonzero(flat):
            continue
        system = [flat[i : i + ncols] for i in range(0, len(flat), ncols)]
        if keep is None:
            keep, _ = _null_rows(system, ncols, real)
        else:
            cut, _ = _null_rows(_times(system, list(zip(*keep)), len(keep), real), len(keep), real)
            keep = _times(cut, keep, ncols, real)
        if not keep:
            break
        keep = [_scaled_down(row, real) for row in keep]
    return keep


def _scaled_down(row, real: bool):
    """row divided by the gcd of its parts."""
    g = gcd(*row) if real else gcd(*chain.from_iterable(row))
    if g == 1:
        return row
    return [x // g for x in row] if real else [(xr // g, xi // g) for xr, xi in row]


class Matrix:
    """Dense immutable matrix over Q(i), row major.

    A matrix is held lifted: each row is a tuple of Gaussian integers over
    one positive denominator coprime to them, and ``_real`` says whether
    every entry is real (the integers are ints) or not ((re, im) pairs).
    This form is canonical, so equality and hashing read it directly, and
    every operation below computes on it.  The Gaussian-rational entries,
    the symmetry verdict and the right-factor form (``_right_terms``) are
    made once, on first access.
    """

    __slots__ = ("rows", "cols", "_real", "_dens", "_ints", "_e", "_sym", "_terms")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self._real, self._dens, self._ints = _lift(rows)
        self._e = self._sym = self._terms = None

    @classmethod
    def _make(cls, real, dens, ints, cols):
        # internal: (real, dens, ints) must already be canonical
        obj = object.__new__(cls)
        obj.rows = len(ints)
        obj.cols = cols
        obj._real, obj._dens, obj._ints = real, dens, ints
        obj._e = obj._sym = obj._terms = None
        return obj

    @classmethod
    def _lifted(cls, real, dens, rows, cols):
        # internal: rows[i] / dens[i] for any nonzero int dens
        return cls._make(*_canonical(real, dens, rows), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        """The zero matrix; with no rows it still has ``cols`` columns."""
        return Matrix._make(True, (1,) * rows, ((0,) * cols,) * rows, cols)

    @staticmethod
    def stack(mats) -> "Matrix":
        """The rows of the given matrices, one below the other."""
        mats = tuple(mats)
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("shape mismatch")
        real = all(m._real for m in mats)
        rows = tuple(
            row for m in mats for row in (m._ints if real or not m._real else _pairs(m._ints))
        )
        return Matrix._make(real, tuple(d for m in mats for d in m._dens), rows, cols)

    @staticmethod
    def symmetric(vec: "Matrix") -> "Matrix":
        """The symmetric matrix whose upper triangle, row by row, is the one-row ``vec``."""
        n = (isqrt(8 * vec.cols + 1) - 1) // 2
        if vec.rows != 1 or n * (n + 1) // 2 != vec.cols:
            raise ValueError("not an upper-triangle vector")
        zero = 0 if vec._real else (0, 0)
        m = [[zero] * n for _ in range(n)]
        it = iter(vec._ints[0])
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        out = Matrix._lifted(vec._real, vec._dens * n, m, n)
        out._sym = True  # by construction
        return out

    def upper(self) -> "Matrix":
        """The entries on and above the diagonal, row by row, as one row.

        Rows that are each canonical are canonical together over their
        common den, and the upper triangle of a symmetric matrix holds every
        entry value, so its gcd and realness are the whole matrix's: when
        the symmetry verdict is already true, the row is canonical as it is.
        """
        rows, den = self._common()
        vec = [x for i, row in enumerate(rows) for x in row[i:]]
        if self._sym:
            return Matrix._make(self._real, (den,), (tuple(vec),), len(vec))
        return Matrix._lifted(self._real, (den,), (vec,), len(vec))

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The entries, read row by row, refilled row by row into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("shape mismatch")
        ints, den = self._common()
        flat = list(chain.from_iterable(ints))
        out = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        return Matrix._lifted(self._real, [den] * rows, out, cols)

    def nonzero_columns(self) -> tuple[int, ...]:
        """The indices of the columns with a nonzero entry."""
        nonzero = any if self._real else _nonzero_pairs
        return tuple(j for j, col in enumerate(zip(*self._ints)) if nonzero(col))

    def row(self, i: int) -> "Matrix":
        """Row i as a one-row matrix.

        A row of the canonical form is canonical already, except that a real
        row of a non-real matrix becomes ints over its den.
        """
        row = self._ints[i]
        if not self._real and not any(xi for _, xi in row):
            return Matrix._make(True, self._dens[i : i + 1], (tuple(xr for xr, _ in row),), self.cols)
        return Matrix._make(self._real, self._dens[i : i + 1], (row,), self.cols)

    def _common(self):
        """(rows, den): the rows over one common denominator."""
        den = lcm(*self._dens)
        return [_scaled(row, den // d, self._real) for d, row in zip(self._dens, self._ints)], den

    def _right_terms(self):
        """(den, terms): the form of this matrix as a right factor, made once.

        den is the common denominator, and terms[i] lists the nonzero
        entries of row i over it: ``(column, int)`` pairs for a real matrix,
        ``(column, re, im)`` triples otherwise.
        """
        if self._terms is None:
            rows, den = self._common()
            self._terms = den, _row_terms(rows, self._real)
        return self._terms

    def entries(self):
        if self._e is None:
            self._e = _drop(self._real, self._dens, self._ints)
        return self._e

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.entries()[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self._dens == other._dens
            and self._ints == other._ints
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._dens, self._ints))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._check_shape(other)
        real = self._real and other._real
        a = self._ints if real or not self._real else _pairs(self._ints)
        b = other._ints if real or not other._real else _pairs(other._ints)
        dens, rows = [], []
        for da, ra, db, rb in zip(self._dens, a, other._dens, b):
            d = lcm(da, db)
            fa, fb = d // da, sign * (d // db)
            if real:
                rows.append([x * fa + y * fb for x, y in zip(ra, rb)])
            else:
                rows.append(
                    [(xr * fa + yr * fb, xi * fa + yi * fb) for (xr, xi), (yr, yi) in zip(ra, rb)]
                )
            dens.append(d)
        return Matrix._lifted(real, dens, rows, self.cols)

    def __neg__(self) -> "Matrix":
        if self._real:
            rows = tuple(tuple(-x for x in row) for row in self._ints)
        else:
            rows = tuple(tuple((-xr, -xi) for xr, xi in row) for row in self._ints)
        return Matrix._make(self._real, self._dens, rows, self.cols)

    def _check_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix._lifted(*self._product(other), other.cols)

    def _product(self, other: "Matrix"):
        """(real, dens, rows): self * other as rows[i] / dens[i], not yet canonical.

        The rows are Gaussian integers of one kind, ints if ``real``; a
        product of a real and a non-real matrix is pairs, even when every
        imaginary part comes out zero.
        """
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        db, terms = other._right_terms()
        real = self._real and other._real
        if other._real:
            out = _times_int(self._ints, terms, other.cols, self._real)
        else:
            out = [_gauss_row_product(row, terms, other.cols, self._real) for row in self._ints]
        return real, [d * db for d in self._dens], out

    def scale(self, c) -> "Matrix":
        c_real, (cd,), ((c,),) = _lift(((gauss(c),),))
        dens = [d * cd for d in self._dens]
        if c_real and self._real:
            return Matrix._lifted(True, dens, [[c * x for x in row] for row in self._ints], self.cols)
        cr, ci = (c, 0) if c_real else c
        a = _pairs(self._ints) if self._real else self._ints
        rows = [[(cr * xr - ci * xi, cr * xi + ci * xr) for xr, xi in row] for row in a]
        return Matrix._lifted(False, dens, rows, self.cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """The Kronecker product.

        Entry (i*other.rows + k, j*other.cols + l) is self[i, j] * other[k, l].
        """
        real = self._real and other._real
        a = self._ints if real or not self._real else _pairs(self._ints)
        b = other._ints if real or not other._real else _pairs(other._ints)
        dens, rows = [], []
        for da, ra in zip(self._dens, a):
            for db, rb in zip(other._dens, b):
                dens.append(da * db)
                if real:
                    rows.append([x * y for x in ra for y in rb])
                else:
                    rows.append(
                        [(xr * yr - xi * yi, xr * yi + xi * yr) for xr, xi in ra for yr, yi in rb]
                    )
        return Matrix._lifted(real, dens, rows, self.cols * other.cols)

    def reindex(self, rows, cols) -> "Matrix":
        """The matrix whose entry (a, b) is self[rows[a], cols[b]].

        When ``cols`` is a permutation of every column, each row keeps its
        entries and den, so it stays canonical; only a non-real matrix whose
        chosen rows are all real becomes ints, as in ``row``.
        """
        rows, cols = tuple(rows), tuple(cols)
        dens = tuple(self._dens[i] for i in rows)
        if sorted(cols) != list(range(self.cols)):
            out = [[self._ints[i][j] for j in cols] for i in rows]
            return Matrix._lifted(self._real, dens, out, len(cols))
        if cols == tuple(range(self.cols)):
            out = tuple(self._ints[i] for i in rows)
        else:
            out = tuple(tuple(self._ints[i][j] for j in cols) for i in rows)
        if self._real or any(xi for row in out for _, xi in row):
            return Matrix._make(self._real, dens, out, self.cols)
        return Matrix._make(True, dens, tuple(tuple(xr for xr, _ in row) for row in out), self.cols)

    def transpose(self) -> "Matrix":
        rows, den = self._common()
        return Matrix._lifted(self._real, [den] * self.cols, list(zip(*rows)), self.rows)

    def conjugate(self) -> "Matrix":
        if self._real:
            return self
        rows = tuple(tuple((xr, -xi) for xr, xi in row) for row in self._ints)
        return Matrix._make(False, self._dens, rows, self.cols)

    @property
    def is_symmetric(self) -> bool:
        if self._sym is None:
            self._sym = self._check_symmetric()
        return self._sym

    def _check_symmetric(self) -> bool:
        # entry (i, j) is a[i][j] / d[i]
        a, d, n = self._ints, self._dens, self.rows
        if n != self.cols:
            return False
        if self._real:
            return all(
                a[i][j] * d[j] == a[j][i] * d[i] for i in range(n) for j in range(i + 1, n)
            )
        return all(
            a[i][j][0] * d[j] == a[j][i][0] * d[i] and a[i][j][1] * d[j] == a[j][i][1] * d[i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    @property
    def is_real(self) -> bool:
        return self._real

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        m, levels, pivots, _, _ = _eliminate(self._ints, self.cols, self._real, reduce=True)
        real, dens, rows = _canonical_over(self._real, m, levels)
        pad = self.rows - len(pivots)
        zero = (0 if real else (0, 0),) * self.cols
        return Matrix._make(real, dens + (1,) * pad, rows + (zero,) * pad, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(_eliminate(self._ints, self.cols, self._real, reduce=False)[2])

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, _, pivots, last, swaps = _eliminate(self._ints, self.cols, self._real, reduce=False)
        if len(pivots) < self.rows:
            return ZERO
        det = _drop(self._real, (prod(self._dens),), ((last,),))[0][0]
        return -det if swaps % 2 else det

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(a) for a in row) for row in self.entries())
        return f"Matrix[{body}]"


def symmetric_images(vecs: Matrix, d: Matrix) -> Matrix:
    """upper(D^T A + A D) for each row of ``vecs``, A the symmetric matrix with that upper triangle.

    The map is linear in A, so it is one product ``vecs * op`` with the
    m x m matrix ``op`` of the map on upper triangles.  The unit form at
    upper-triangle position (p, q) puts row q of D in row p of AD and row p
    of D in row q, and entry (i, j) of D^T A + A D is (AD)[i, j] + (AD)[j, i];
    so row (p, q) of ``op`` sends each nonzero entry of those rows of D to
    one position of the image, doubled on the diagonal.  ``op`` is built
    from the lifted integers of D over its common den, as ints when D is
    real.
    """
    n, m = d.rows, vecs.cols
    if d.cols != n or m != n * (n + 1) // 2:
        raise ValueError("shape mismatch")
    index = [[0] * n for _ in range(n)]  # the upper-triangle position of (i, j) and (j, i)
    pos = 0
    for i in range(n):
        for j in range(i, n):
            index[i][j] = index[j][i] = pos
            pos += 1
    dm, dden = d._common()
    parts = (dm,) if d._real else tuple([[x[k] for x in row] for row in dm] for k in (0, 1))
    zero = 0 if d._real else (0, 0)
    nonzero = [[j for j, x in enumerate(row) if x != zero] for row in dm]
    op = []
    for p in range(n):
        for q in range(p, n):
            accs = [[0] * m for _ in parts]
            for r, s in ((p, q), (q, p)) if p != q else ((p, p),):
                for j in nonzero[s]:
                    f = 2 if r == j else 1
                    for acc, part in zip(accs, parts):
                        acc[index[r][j]] += f * part[s][j]
            op.append(accs[0] if d._real else list(zip(*accs)))
    return vecs * Matrix._lifted(d._real, [dden] * m, op, m)


def kernel(m: Matrix) -> Matrix:
    """Exact basis of the right null space {v : m*v = 0}, one vector per row.

    Row k is 1 at the k-th free column, 0 at the other free ones, and minus
    that column of the reduced row echelon form at the pivots: the vector
    of ``_null_rows``, forward elimination and back substitution, over its
    free entry.  Each row is canonical on its own, over its own denominator
    (a trivial kernel has no rows).
    """
    basis, last = _null_rows(m._ints, m.cols, m._real)
    return Matrix._make(*_canonical_over(m._real, basis, [last] * len(basis)), m.cols)


def solve(m: Matrix, rhs: Matrix):
    """One exact solution x of x*m = rhs (one row) as a tuple, or None if inconsistent.

    x*m = rhs exactly when (x, -1) lies in the kernel of [m; rhs]^T.  The
    last column of that matrix is free exactly when the system is
    consistent, and then the last kernel row is 1 there and 0 at the other
    free columns: x is minus the rest of that row, with the free unknowns 0.
    """
    if (rhs.rows, rhs.cols) != (1, m.cols):
        raise ValueError("right-hand side must be one row as wide as the matrix")
    ker = kernel(Matrix.stack([m, rhs]).transpose())
    if not ker.rows or not ker[ker.rows - 1, m.rows]:
        return None
    return tuple(-x for x in ker.entries()[-1][: m.rows])


class Signature(Record):
    """Inertia of a real symmetric matrix, normalized so pos <= neg.

    A quadric V(q) equals V(-q), so (pos, neg) and (neg, pos) describe the
    same hypersurface; the normalized representative keeps comparisons
    well-defined.
    """

    __slots__ = _fields = ("pos", "neg", "zero")

    def __init__(self, pos: int, neg: int, zero: int = 0):
        _setattr(self, "pos", pos)
        _setattr(self, "neg", neg)
        _setattr(self, "zero", zero)

    def normalized(self) -> "Signature":
        if self.pos > self.neg:
            return Signature(self.neg, self.pos, self.zero)
        return self

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    def __str__(self) -> str:
        return f"({self.pos},{self.neg})" + (f"+0^{self.zero}" if self.zero else "")


@lru_cache(maxsize=16)
def _zero_pads(n: int) -> tuple[tuple[int, ...], ...]:
    """The zero tuples of lengths 0 to n - 1."""
    return tuple((0,) * j for j in range(n))


def _diagonal_matrix(diag, den: int) -> Matrix:
    """The real diagonal Matrix with entries diag[k] / den, for ints diag[k] and den > 0.

    Row k is diag[k] over den, each divided by their gcd, so the rows are
    canonical as built.
    """
    n = len(diag)
    pads = _zero_pads(n)
    dens, ints = [], []
    for k, x in enumerate(diag):
        g = gcd(x, den)
        dens.append(den // g)
        ints.append(pads[k] + (x // g,) + pads[n - 1 - k])
    m = Matrix._make(True, tuple(dens), tuple(ints), n)
    m._sym = True  # diagonal
    return m


def _require_real_symmetric(a: Matrix) -> None:
    if a.rows != a.cols:
        raise ValueError("matrix is not square")
    if not a.is_real:
        raise ValueError("matrix has imaginary entries; move the form to a real frame first")
    if not a.is_symmetric:
        raise ValueError("matrix is not symmetric")


def congruence_diagonalize(a: Matrix) -> Matrix:
    """A diagonal D with P^T * a * P = D for some invertible integer P.

    Symmetric fraction-free elimination on the integer matrix den*a.  As in
    ``_eliminate``, the step with pivot p = w[k][k] rewrites a row j below,
    whose own entry f in column k is nonzero, as (p*row_j - f*row_k) / q,
    with q the pivot the row was last rewritten with (1 at first), and
    leaves the other rows alone.  A row takes the scalings by prev / q it
    skipped before it serves as the pivot row or joins a repair, so every
    pivot is that of the Bareiss scheme, which rewrites every row at every
    step: D[k, k] = prev * p / den, with the sign of the pivot p / prev of
    rational elimination.  A zero diagonal pivot with a nonzero
    off-diagonal partner is repaired by the classical e_k -> e_k + e_j
    substitution.  P, the product of these column operations, is not
    built.  D is one diagonal form congruent to a, not a canonical one.

    A pivot row with nothing right of the pivot rewrites no row: the rows
    below are multiples of those of the symmetric Bareiss matrix, so none
    has an entry in its column either.  Such a step takes the pivot
    w[k][k] * prev / q that the catch-up would give, and skips both the
    catch-up and the sweep below; on a diagonal form no row is ever
    rewritten.  Each row of D, x over den, is divided by gcd(x, den).

    So a diagonal form takes its pivots straight off its diagonal, with no
    common-den matrix, row copy or swap: the swaps past its zero entries are
    a stable partition of the nonzero entries x_k (over the common den)
    ahead of the zeros, and each nonzero x_k gives the pivot x_k * prev.
    """
    _require_real_symmetric(a)
    n = a.rows
    if all(row.count(0) + (row[k] != 0) == n for k, row in enumerate(a._ints)):
        den = lcm(*a._dens)
        diag, prev = [], 1
        for k, (d, row) in enumerate(zip(a._dens, a._ints)):
            if row[k]:
                piv = row[k] * (den // d) * prev
                diag.append(prev * piv)
                prev = piv
        return _diagonal_matrix(diag + [0] * (n - len(diag)), den)
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
        if not any(w[k][k + 1 :]):  # so no row below has an entry in column k
            piv = w[k][k] * prev // levels[k]
        else:
            catch_up(k, k)
            piv = w[k][k]
            lead = w[k]
            for j in range(k + 1, n):
                f = w[j][k]
                if f:
                    w[j] = _combine_z(piv, w[j], f, lead, levels[j], k + 1)
                    levels[j] = piv
        diag.append(prev * piv)
        prev = piv
    return _diagonal_matrix(diag, den)


def signature(a: Matrix) -> Signature:
    """Normalized inertia of a real symmetric matrix, via exact congruence."""
    d = congruence_diagonalize(a)
    diag = [d._ints[i][i] for i in range(a.rows)]  # over positive denominators
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    return Signature(pos, neg, a.rows - pos - neg).normalized()
