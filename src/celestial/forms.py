"""The rotational-symmetry family of hyperquadrics and its classification.

A surface in the Moebius quadric with a two-torus of Moebius automorphisms
is cut out, after moving to standard coordinates, by one member of the
four-parameter family

    Q_c = { c1 (y0^2 - y1 y2) + c3 (y0^2 - y3 y4)
          + c5 (y0^2 - y5 y6) + c7 (y0^2 - y7 y8) = 0 }

inside P^8.  The support pattern of c determines the celestial type, the
singular locus, the symmetry group and the moduli dimension; this module
computes those from scratch and packages the answer as a classification
record.  It reads no table: the eight records the paper prints, the four
rigid surfaces outside the family among them, live in ``verify``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from fractions import Fraction
from math import lcm

from .exact import Matrix, Record, Signature, _diagonal_matrix, gauss
from .exact import signature  # noqa: F401 (the benchmark's tracer wraps it in each module that binds it)
from .segre import (
    FormSpan,
    QuadraticForm,
    i2_segre,
    mu_transform,
    rep_S,
)
from . import liealg

INFINITY = float("inf")

FAMILY_INDICES = (1, 3, 5, 7)


class FamilyCoeffs(Record):
    """Coefficients (c1, c3, c5, c7) of a family member, not all zero."""

    _fields = ("c1", "c3", "c5", "c7")

    def __init__(self, c1, c3, c5, c7):
        c1, c3, c5, c7 = Fraction(c1), Fraction(c3), Fraction(c5), Fraction(c7)
        if not (c1 or c3 or c5 or c7):
            raise ValueError("coefficients must not all vanish")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "c5", c5)
        object.__setattr__(self, "c7", c7)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c1, self.c3, self.c5, self.c7)


# the four generators y0^2 - y_i y_{i+1}, i = 1, 3, 5, 7, in that order
@lru_cache(maxsize=1)
def family_basis() -> FormSpan:
    i2 = i2_segre()
    return FormSpan.from_rows(Matrix.stack(i2.coefficients.row(i) for i in range(4)), coords=i2.coords)


@lru_cache(maxsize=1)
def _family_diagonals_x() -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """The four family generators moved once to the real frame of sigma_2,
    each as (den d_k, its nonzero diagonal entries as (j, int) pairs).

    A congruence M^T A M is linear in A, so a member's real form is the same
    combination of these.  Generator k moves to a form with three nonzero
    entries, at 0, i and i + 1.  Raises ``ArithmeticError`` if a moved
    generator is not a real diagonal form: ``family_form`` sums members on
    the diagonal only because every generator lies there.
    """
    out = []
    for q in family_basis().basis:
        m = mu_transform(2, q).matrix
        if not m._real or any(x for i, row in enumerate(m._ints) for j, x in enumerate(row) if j != i):
            raise ArithmeticError("a family generator is not a real diagonal form in the x frame")
        d = lcm(*m._dens)
        diag = (row[i] * (d // e) for i, (e, row) in enumerate(zip(m._dens, m._ints)))
        out.append((d, tuple((j, v) for j, v in enumerate(diag) if v)))
    return tuple(out)


def _family_sums_x(c: FamilyCoeffs) -> tuple[list[int], int]:
    """The diagonal of the member's real form in the x frame, as nine ints over one positive den.

    Entry j is sum_k c_k * v / d_k over the entries (j, v) of the
    generators of ``_family_diagonals_x``, summed over the lcm of the dens
    of the c_k / d_k.
    """
    gens = _family_diagonals_x()
    coeffs = c.as_tuple()
    den = lcm(*(x.denominator * d for x, (d, _) in zip(coeffs, gens)))
    sums = [0] * 9
    for x, (d, entries) in zip(coeffs, gens):
        if x:
            f = x.numerator * (den // (x.denominator * d))
            for j, v in entries:
                sums[j] += f * v
    return sums, den


def family_form(c: FamilyCoeffs, frame: str = "y") -> QuadraticForm:
    """The quadric of the family member, in the y frame or its real x frame.

    The x-frame form is diagonal: the sums of ``_family_sums_x``, written
    straight as the canonical matrix, each row reduced by its gcd with their
    den.  It is the same matrix as ``mu_transform(2, ...)`` of the y-frame
    form.
    """
    if frame == "y":
        return family_basis().combination(c.as_tuple())
    if frame != "x":
        raise ValueError("frame must be 'y' or 'x'")
    return QuadraticForm(_diagonal_matrix(*_family_sums_x(c)))


def singular_support(c: FamilyCoeffs) -> tuple[frozenset[int], int]:
    """Vanishing-coefficient support and projective dimension of the vertex.

    Returns (I, dim) where I = {i : c_i = 0} indexes the coordinate pairs
    the quadric does not see; its vertex is the projective span of those
    pairs, of dimension 2|I| - 1 (-1 meaning a smooth quadric).  Mixed-sign
    coefficients are rejected (the quadric would not bound a sphere), as is
    |I| > 2 (the leftover coordinates no longer carry a surface).
    """
    coeffs = c.as_tuple()
    signs = {x > 0 for x in coeffs if x}
    if len(signs) == 2:
        raise ValueError("coefficients must share one sign")
    vanishing = frozenset(i for x, i in zip(coeffs, FAMILY_INDICES) if not x)
    if len(vanishing) > 2:
        raise ValueError("at most two coefficients may vanish")
    # the vertex is the projectivized kernel of the real form, and its
    # dimension the number of zero squares of its congruence, less one
    dim = moebius_pair(c).zero - 1
    if dim != 2 * len(vanishing) - 1:
        raise RuntimeError("vertex dimension disagrees with the support pattern")
    return vanishing, dim


def moebius_pair(c: FamilyCoeffs) -> Signature:
    """Normalized signature of the real form of a family member.

    That form is diagonal, so by Sylvester's law its inertia is the signs
    of its nine diagonal sums, with no congruence.  The member bounds a
    sphere only when that signature has exactly one positive square;
    anything else raises ``ValueError``.  The family span is the first four
    generators of the Segre quadric ideal, so the member lies in the ideal
    by construction.
    """
    sums, _ = _family_sums_x(c)  # over a positive den, so they carry the signs of the entries
    pos, neg = sum(x > 0 for x in sums), sum(x < 0 for x in sums)
    sig = Signature(pos, neg, len(sums) - pos - neg).normalized()
    if sig.pos != 1:
        raise ValueError(f"quadric has signature {sig}, not a sphere form")
    return sig


class CelestialRecord(Record):
    """Classification data of one surface: type, singularities, symmetry.

    ``circles`` is the number of circles through a general point, inf allowed.
    """

    _fields = ("circles", "degree", "ambient", "singular_locus", "group_name", "moduli_dim",
               "moebius_equals_full_aut", "name")

    def __init__(self, circles: float, degree: int, ambient: int, singular_locus: str,
                 group_name: str, moduli_dim: int, moebius_equals_full_aut: bool, name: str):
        object.__setattr__(self, "circles", circles)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "singular_locus", singular_locus)
        object.__setattr__(self, "group_name", group_name)
        object.__setattr__(self, "moduli_dim", moduli_dim)
        object.__setattr__(self, "moebius_equals_full_aut", moebius_equals_full_aut)
        object.__setattr__(self, "name", name)

    def to_json(self) -> dict:
        lam = "inf" if self.circles == INFINITY else int(self.circles)
        return {
            "type": [lam, self.degree, self.ambient],
            "singular": self.singular_locus,
            "group": self.group_name,
            "moduli_dim": self.moduli_dim,
            "moebius_equals_aut": self.moebius_equals_full_aut,
            "name": self.name,
        }


def classify_family(c: FamilyCoeffs) -> CelestialRecord:
    """Map a family member to its classification row.

    The ambient dimension is recomputed as rank(Q_c) - 2, the rank read off
    the signature that gives the vertex, and must agree with the row; the
    moduli dimension counts the projective freedom left in the family after
    fixing the support.
    """
    vanishing, vertex_dim = singular_support(c)  # also checks the sphere signature
    n = 9 - (vertex_dim + 1) - 2
    moduli = 3 - len(vanishing)
    if not vanishing:
        rec = _make_record(2, 8, 7, "", 3, False, "double Segre surface")
    elif vanishing in ({1}, {3}):
        rec = _make_record(2, 8, 5, "", 2, False, "projected dS")
    elif vanishing in ({5}, {7}):
        rec = _make_record(3, 6, 5, "", 2, True, "dP6")
    else:
        rec = _make_record(4, 4, 3, "A1+A1+A1+A1", 1, True, "ring cyclide")
    if rec.ambient != n:
        raise RuntimeError(f"recomputed ambient dimension {n} disagrees with {rec}")
    if rec.moduli_dim != moduli:
        raise RuntimeError("moduli dimension disagrees with the support pattern")
    return rec


@lru_cache(maxsize=None)
def _make_record(circles, degree, ambient, singular, moduli, m_eq_aut, name):
    # made once per support pattern: the arguments are constants, and records are immutable
    return CelestialRecord(
        circles, degree, ambient, singular, "PSO(2)xPSO(2)", moduli, m_eq_aut, name
    )


def random_fraction(rng: random.Random) -> Fraction:
    """A small nonzero rational: +-(1..5) / (1..3)."""
    return Fraction(rng.randint(1, 5) * rng.choice((1, -1)), rng.randint(1, 3))


def random_sl2(rng: random.Random) -> Matrix:
    """A generic determinant-1 matrix from three random unipotent shears.

    The product [[1, a], [0, 1]] [[1, 0], [b, 1]] [[1, c], [0, 1]], written out.
    """
    a, b, c = (random_fraction(rng) for _ in range(3))
    ab = 1 + a * b
    return Matrix([[ab, a + c * ab], [b, b * c + 1]])


def _is_monomial(m: Matrix) -> bool:
    diagonal = not m[0, 1] and not m[1, 0]
    antidiagonal = not m[0, 0] and not m[1, 1]
    return diagonal or antidiagonal


def rigidity_sample_check(c: FamilyCoeffs, trials: int = 100, seed: int = 0) -> bool:
    """Sampled necessary condition for rigidity of the family coordinates.

    For pseudorandom determinant-1 pairs other than pairs of monomial
    matrices, the transformed quadric must leave the family span, and
    diagonal-torus pairs must fix the coefficients of the member.  The
    skipped monomial pairs normalize the torus and may permute
    coefficients: with w = [[0, 1], [-1, 0]], ``rep_S(w, I)`` maps
    Q_(1,1,1,2) to Q_(1,1,2,1).  The factor swap (s, u) -> (u, s), which
    no pair of SL2 x SL2 gives, normalizes the torus too: it permutes the
    y coordinates by the exponent map (a, b) -> (b, a), maps the family
    span to itself, exchanging c1 and c3, and commutes with sigma_2.  So
    equivalent members need not have proportional coefficients.  This
    samples a necessary condition; it is not a proof.
    """
    span = family_basis()
    a_c = family_form(c, "y")

    def one_trial(k: int) -> bool:
        trial_rng = random.Random(f"rigidity:{seed}:{k}")
        while True:
            phi1 = random_sl2(trial_rng)
            phi2 = random_sl2(trial_rng)
            if not (_is_monomial(phi1) and _is_monomial(phi2)):
                break
        s = rep_S(phi1, phi2)
        moved = QuadraticForm(s.transpose() * a_c.matrix * s)
        return not span.contains(moved)

    if not all(one_trial(k) for k in range(trials)):
        return False

    # each generator y0^2 - y_i y_(i+1) has torus weight 0, so diagonal torus
    # elements must fix the member's coefficients exactly
    for alpha, beta in ((Fraction(2), Fraction(1)), (Fraction(3, 2), Fraction(5))):
        phi1 = Matrix([[alpha, 0], [0, 1 / alpha]])
        phi2 = Matrix([[beta, 0], [0, 1 / beta]])
        s = rep_S(phi1, phi2)
        moved = QuadraticForm(s.transpose() * a_c.matrix * s)
        if span.coordinates_of(moved) != tuple(gauss(x) for x in c.as_tuple()):
            return False
    return True


# the two rigid hyperquadric forms of non-Moebius signature, in their real
# frames (identity frame and the component-swapping frame respectively)
def corollary_forms() -> tuple[QuadraticForm, QuadraticForm]:
    full_invariant = liealg.full_invariant_forms()
    if len(full_invariant) != 1:
        raise RuntimeError("full symmetry algebra should leave one quadric")
    q = full_invariant.basis[0]
    return mu_transform(0, q), mu_transform(3, q)

