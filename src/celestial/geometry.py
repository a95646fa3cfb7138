"""Blowup combinatorics, cyclide models, and the Veronese-surface track.

Three independent computations live here.  The divisor-class lattice of a
blown-up quadric surface turns each blowup configuration into a set of
(-2)-classes whose intersection graph spells out the singular locus as a
Dynkin string.  The spindle and horn cyclides are produced explicitly by
pulling toric models through printed coordinate changes T = T0 + sqrt(2)*T1
(two Q(i) matrices, so the congruence stays in the exact core) and verified
against their stereographic cone and cylinder images, whose exact points
live in the quadratic extension Q(i, sqrt 2).  Finally the same invariant
form machinery runs for the Veronese surface in P^5 with its sl3 symmetry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import Matrix, Signature, signature, ONE
from .segre import (
    FormSpan,
    MonomialParam,
    QuadraticForm,
    monomial_rep_derivative,
    mu_matrix,
    toric_projection,
    toric_quadrics,
)
from .liealg import ActionTable, action_table, solve_invariant

# ---------------------------------------------------------------------------
# divisor classes on the blown-up surface


@dataclass(frozen=True)
class NSClass:
    """Integer vector over the basis (l0, l1, e1, e2, e3, e4)."""

    coeffs: tuple[int, int, int, int, int, int]

    def conjugate(self) -> "NSClass":
        """The real structure swaps e1 <-> e2 and e3 <-> e4."""
        l0, l1, e1, e2, e3, e4 = self.coeffs
        return NSClass((l0, l1, e2, e1, e4, e3))


L0 = NSClass((1, 0, 0, 0, 0, 0))
L1 = NSClass((0, 1, 0, 0, 0, 0))


def ns_product(a: NSClass, b: NSClass) -> int:
    """Intersection pairing: l0.l1 = 1, ei^2 = -1, everything else 0."""
    a0, a1, *ae = a.coeffs
    b0, b1, *be = b.coeffs
    return a0 * b1 + a1 * b0 - sum(x * y for x, y in zip(ae, be))


def fiber_class(axis: int, i: int, j: int) -> NSClass:
    base = L0 if axis == 1 else L1
    return NSClass(
        tuple(
            b - (1 if k == 1 + i or k == 1 + j else 0)
            for k, b in enumerate(base.coeffs)
        )
    )


def near_class(i: int, j: int) -> NSClass:
    """e_i - e_j for a point j infinitely near point i."""
    return NSClass(
        tuple(
            (1 if k == 1 + i else 0) - (1 if k == 1 + j else 0)
            for k in range(6)
        )
    )


@dataclass(frozen=True)
class BlowupConfig:
    """One configuration of blowup points on the doubled projective line.

    Points are numbered 1..4 (p, conj p, q, conj q).  ``pi1_fibers`` and
    ``pi2_fibers`` list the index pairs sharing a fiber of the first and
    second ruling; ``near`` lists (i, j) with j infinitely near i.
    """

    points: tuple[int, ...]
    pi1_fibers: tuple[tuple[int, int], ...] = ()
    pi2_fibers: tuple[tuple[int, int], ...] = ()
    near: tuple[tuple[int, int], ...] = ()


BLOWUP_CONFIGS: dict[str, BlowupConfig] = {
    "a": BlowupConfig(()),
    "b": BlowupConfig((1, 2)),
    "c": BlowupConfig((1, 2), pi2_fibers=((1, 2),)),
    "d": BlowupConfig((1, 2, 3, 4), pi1_fibers=((1, 3), (2, 4)), pi2_fibers=((1, 4), (2, 3))),
    "e": BlowupConfig((1, 2, 3, 4), pi1_fibers=((1, 3), (2, 4)), pi2_fibers=((1, 2), (3, 4))),
    "f": BlowupConfig(
        (1, 2, 3, 4),
        pi1_fibers=((1, 3), (2, 4)),
        pi2_fibers=((1, 2),),
        near=((1, 3), (2, 4)),
    ),
}


def b_classes(cfg: BlowupConfig) -> frozenset[NSClass]:
    """Effective indecomposable (-2)-classes of a blowup configuration.

    A fiber through two blowup points contributes its strict transform;
    an infinitely-near pair contributes the difference of its exceptional
    classes.
    """
    out = set()
    for i, j in cfg.pi1_fibers:
        out.add(fiber_class(1, i, j))
    for i, j in cfg.pi2_fibers:
        out.add(fiber_class(2, i, j))
    for i, j in cfg.near:
        out.add(near_class(i, j))
    anticanonical = NSClass(
        (2, 2, *(-1 if k in cfg.points else 0 for k in (1, 2, 3, 4)))
    )
    for c in out:
        if ns_product(c, c) != -2 or ns_product(anticanonical, c) != 0:
            raise RuntimeError(f"{c} is not an anticanonical-orthogonal (-2)-class")
    return frozenset(out)


def dynkin(classes: frozenset[NSClass]) -> str:
    """Singularity content of a class set: components of the product graph.

    Vertices are the classes, edges join positive products; each connected
    component must be a chain and gives one A_k, marked real when the
    conjugation swap maps the component onto itself.  The string joins the
    components with '+', largest first and real before complex, a real one
    prefixed 'r' ("rA3+A1+A1").
    """
    nodes = sorted(classes, key=lambda c: c.coeffs)
    n = len(nodes)
    adj = {
        a: [b for b in nodes if b != a and ns_product(a, b) > 0] for a in nodes
    }
    seen: set[NSClass] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adj[v])
        degrees = sorted(len([w for w in adj[v] if w in comp]) for v in comp)
        is_chain = (
            len(comp) == 1
            or degrees == [1, 1] + [2] * (len(comp) - 2)
        )
        if not is_chain:
            raise ValueError("component of the class graph is not a chain")
        is_real = {v.conjugate() for v in comp} == set(comp)
        comps.append((len(comp), is_real))
    comps.sort(key=lambda c: (-c[0], not c[1]))
    return "+".join(("r" if real else "") + f"A{k}" for k, real in comps)


# ---------------------------------------------------------------------------
# cyclide models


def _sqrt2_congruence(form: QuadraticForm, t0: Matrix, t1: Matrix) -> QuadraticForm:
    """T^T A T for T = t0 + sqrt(2)*t1 over Q(i); the sqrt(2) part must cancel.

    That part is t0^T A t1 + t1^T A t0, the cross term plus its transpose
    because A is symmetric; what remains is t0^T A t0 + 2 * t1^T A t1.
    """
    a = form.matrix
    cross = t0.transpose() * a * t1
    if cross != -cross.transpose():
        raise ValueError("congruence did not eliminate sqrt(2)")
    return QuadraticForm(t0.transpose() * a * t0 + (t1.transpose() * a * t1).scale(2))


# the y coordinates that the projections to the spindle and horn models omit
SPINDLE_DROP = frozenset({5, 6, 7, 8})
HORN_DROP = frozenset({1, 2, 5, 8})

# the printed coordinate changes alpha = alpha0 + sqrt(2)*alpha1 of the
# spindle model on (x0, x1, x2, x3, x4) and the horn model on (x0, x3, x4,
# x6, x7), in that order; each is applied after mu_1
_Z = [0] * 5
_H = Fraction(1, 2)
_SPINDLE_ALPHA = (
    [[0, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], _Z, _Z],
    [_Z, _Z, _Z, [_H, 0, 0, -_H, 0], [_H, 0, 0, _H, 0]],
)
_HORN_ALPHA = (
    [_Z, [0, 1, 0, 0, 0], [-1, -1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    [[0, 0, _H, 0, 0], _Z, _Z, _Z, _Z],
)


@lru_cache(maxsize=1)
def cyclide_pipeline() -> tuple[FormSpan, FormSpan]:
    """Quadric pencils of the standard spindle and horn cyclides in S^3.

    Both toric models are pulled through their printed coordinate changes;
    each resulting pencil must contain the 3-sphere form x0^2 - sum x_i^2.
    """
    spans = []
    for drop, alpha in ((SPINDLE_DROP, _SPINDLE_ALPHA), (HORN_DROP, _HORN_ALPHA)):
        y_span = toric_projection(drop)
        mu = mu_matrix(1, y_span.coords)
        t0, t1 = Matrix(alpha[0]) * mu, Matrix(alpha[1]) * mu
        forms = tuple(_sqrt2_congruence(q, t0, t1) for q in y_span.basis)
        span = FormSpan(forms, coords=y_span.coords)
        if sphere_member(span) is None:
            raise RuntimeError("cyclide pencil misses the 3-sphere form")
        spans.append(span)
    return spans[0], spans[1]


def sphere_member(span: FormSpan):
    """Coefficients putting x0^2 - x1^2 - ... - x_k^2 in the span, if any."""
    k = span.dim
    sphere = QuadraticForm(
        Matrix([[1 if (i, j) == (0, 0) else -1 if i == j else 0 for j in range(k)] for i in range(k)])
    )
    return span.coordinates_of(sphere)


@dataclass(frozen=True)
class StereographicReport:
    """Outcome of the cone/cylinder verification on a rational grid."""

    ok: bool
    cone_constant: Fraction | None
    cylinder_radius_sq: Fraction | None
    samples: int
    skipped: int

    def __bool__(self) -> bool:
        return self.ok


_STEREO_GRID = 7  # grid points per parameter


def _spindle_integer_point(t: Fraction, u: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The spindle model point at (t, u) as integer vectors (A, B): it is A + sqrt(2)*B.

    With (c, d) = ((1 - t^2), 2t) / (1 + t^2) on the unit circle, the model
    point is ((u + 1/u) / sqrt(2), c, d, (1/u - u) / sqrt(2), 1); with
    t = p/q and u = r/s this is that point times 2rs(p^2 + q^2).
    """
    p, q, r, s = t.numerator, t.denominator, u.numerator, u.denominator
    n = p * p + q * q
    return (
        (0, 2 * r * s * (q * q - p * p), 4 * r * s * p * q, 0, 2 * r * s * n),
        (n * (r * r + s * s), 0, 0, n * (s * s - r * r), 0),
    )


def _horn_integer_point(t: Fraction, u: Fraction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The horn model point at (t, u) as integer vectors (A, B): it is A + sqrt(2)*B.

    With (c, d) = ((1 - t^2), 2t) / (1 + t^2) on the unit circle, the model
    point is (-u - 1/u, u, sqrt(2), d/u, c/u); with t = p/q and u = r/s this
    is that point times rs(p^2 + q^2).
    """
    p, q, r, s = t.numerator, t.denominator, u.numerator, u.denominator
    n = p * p + q * q
    return (
        (-n * (r * r + s * s), n * r * r, 0, 2 * p * q * s * s, (q * q - p * p) * s * s),
        (0, 0, r * s * n, 0, 0),
    )


def _vanishes(span: FormSpan, points) -> bool:
    """Every form of the span is zero at every integer point A + sqrt(2)*B.

    With w = 1 on the diagonal and 2 off it, q(A + sqrt(2)*B) is the sum
    over i <= j of w q_ij (A_i A_j + 2 B_i B_j), plus sqrt(2) times the sum
    of w q_ij (A_i B_j + B_i A_j).  sqrt(2) is not in Q(i), so both sums
    vanish: one product of the points' monomial rows with the coefficient
    columns of the span for each part.
    """
    n = span.dim
    monomials = [(i, j, 1 if i == j else 2) for i in range(n) for j in range(i, n)]
    rational = [[w * (a[i] * a[j] + 2 * b[i] * b[j]) for i, j, w in monomials] for a, b in points]
    sqrt2 = [[w * (a[i] * b[j] + b[i] * a[j]) for i, j, w in monomials] for a, b in points]
    columns = span.coefficients.transpose()
    zero = Matrix.zero(len(points), len(span))
    return Matrix(rational) * columns == zero and Matrix(sqrt2) * columns == zero


# a + b*sqrt(2) as the int pair (a, b)
def _mul2(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _add2(x, y):
    return x[0] + y[0], x[1] + y[1]


def _quotient2(num, den) -> tuple[Fraction, Fraction]:
    """num / den in Q(sqrt 2) as (rational part, sqrt(2) part), for int pairs, den != 0."""
    top = _mul2(num, (den[0], -den[1]))
    norm = den[0] * den[0] - 2 * den[1] * den[1]
    return Fraction(top[0], norm), Fraction(top[1], norm)


def _spindle_shape(p):
    """(chart, X^2 + Y^2, Z^2) of the projection (X, Y, Z) = (p1, p2, p4) / chart."""
    chart = (p[0][0] - p[3][0], p[0][1] - p[3][1])
    return chart, _add2(_mul2(p[1], p[1]), _mul2(p[2], p[2])), _mul2(p[4], p[4])


def _horn_shape(p):
    """(chart, Y^2 + Z^2, chart^2) of the projection (Y, Z) = (p4, p3) / chart."""
    chart = _add2(p[0], p[1])
    return chart, _add2(_mul2(p[4], p[4]), _mul2(p[3], p[3])), _mul2(chart, chart)


def _fit(points, shape):
    """The one value num / den that shape takes at all points off the projection center.

    Returns (value or None, skipped): None when the values differ, the
    denominator vanishes, or every point is skipped.
    """
    values, skipped = set(), 0
    for a, b in points:
        chart, num, den = shape(list(zip(a, b)))
        if chart == (0, 0):
            skipped += 1
        elif den == (0, 0):
            return None, skipped
        else:
            values.add(_quotient2(num, den))
    return (values.pop() if len(values) == 1 else None), skipped


def stereographic_check() -> StereographicReport:
    """Project the cyclide models to 3-space and fit their circular shapes.

    The spindle image must satisfy X^2 + Y^2 = c Z^2 (a circular cone) and
    the horn image must satisfy Y^2 + Z^2 = r^2 independently of the axis
    coordinate (a circular cylinder), identically over a rational grid;
    grid points hitting the projection center are skipped and counted.
    Each model point is first checked to lie on its pencil.
    """
    x_s, x_h = cyclide_pipeline()
    ts = [Fraction(k, _STEREO_GRID) for k in range(1, _STEREO_GRID + 1)]
    us = [Fraction(k, 3) for k in range(1, _STEREO_GRID + 1)]
    grid = list(itertools.product(ts, us))
    spindle = [_spindle_integer_point(t, u) for t, u in grid]
    horn = [_horn_integer_point(t, u) for t, u in grid]
    if not (_vanishes(x_s, spindle) and _vanishes(x_h, horn)):
        return StereographicReport(False, None, None, 0, 0)
    cone_c, skipped_s = _fit(spindle, _spindle_shape)
    radius, skipped_h = _fit(horn, _horn_shape)
    skipped = skipped_s + skipped_h

    def _positive_rational(v) -> Fraction | None:
        return v[0] if v is not None and not v[1] and v[0] > 0 else None

    cone, r_sq = _positive_rational(cone_c), _positive_rational(radius)
    ok = cone is not None and r_sq is not None
    return StereographicReport(ok, cone, r_sq, len(spindle) + len(horn) - skipped, skipped)


# ---------------------------------------------------------------------------
# the Veronese surface in P^5

VERONESE_EXPONENTS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 1), (1, 0), (0, 1), (2, 0), (0, 2),
)

# degree-2 monomials in (s, t, u) matching the coordinate order above: the
# homogenized exponents
VERONESE_MONOMIALS = tuple((a, b, 2 - a - b) for a, b in VERONESE_EXPONENTS)


@lru_cache(maxsize=1)
def veronese_data() -> FormSpan:
    """The 6 quadric generators of the Veronese surface in P^5."""
    return toric_quadrics(MonomialParam(VERONESE_EXPONENTS))


SL3_BASIS = {
    "a1": Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "a2": Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    "a3": Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    "b1": Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    "b2": Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
    "b3": Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
    "c1": Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    "c2": Matrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
}


def so3_basis() -> list[Matrix]:
    return [
        SL3_BASIS["b1"] - SL3_BASIS["a1"],
        SL3_BASIS["b2"] - SL3_BASIS["a2"],
        SL3_BASIS["b3"] - SL3_BASIS["a3"],
    ]


# the positions (i, j) of the gl3 matrix units E_ij, row by row: E_00, E_01, ...
_GL3_UNITS = tuple((i, j) for i in range(3) for j in range(3))


@lru_cache(maxsize=1)
def _veronese_action_table() -> ActionTable:
    """The ActionTable of the nine gl3 matrix units E_ij on the Veronese quadrics.

    It is built on the first query; the units go in the order of ``_GL3_UNITS``.
    """
    units = [Matrix([[int((r, c) == unit) for c in range(3)] for r in range(3)]) for unit in _GL3_UNITS]
    tangents = [monomial_rep_derivative(u, VERONESE_MONOMIALS) for u in units]
    return action_table(tangents, veronese_data())


def veronese_invariant_forms(algebra) -> FormSpan:
    """Invariant quadrics in the Veronese ideal for a subalgebra of sl3.

    The tangent of g is linear in g, so g = sum g_ij E_ij acts on the span
    through the row of its nine entries, read row by row, in the table of
    the matrix units E_ij.
    """
    rows = []
    for g in algebra:
        if g.rows != 3 or g.cols != 3:
            raise ValueError("Veronese algebra elements must be 3x3")
        rows.append([x for row in g.entries() for x in row])
    return solve_invariant(Matrix(rows), (_veronese_action_table(),))


def so3_invariant_form() -> QuadraticForm:
    """The unique rotation-invariant quadric through the Veronese surface.

    The full sl3 is checked to leave nothing invariant, and the rotation
    algebra exactly one form.
    """
    full = veronese_invariant_forms(SL3_BASIS.values())
    if len(full) != 0:
        raise RuntimeError("full sl3 should leave no invariant quadric")
    rot = veronese_invariant_forms(so3_basis())
    if len(rot) != 1:
        raise RuntimeError("rotation algebra should leave exactly one quadric")
    q = rot.basis[0]
    lead = q.matrix[1, 1]  # normalize the x1^2 coefficient to 1
    return q.scale(ONE / lead)


# Y[a][b] is the coordinate whose monomial is the product of variables a and b
# of (s, t, u): on the surface, Y is the rank-1 symmetric matrix x x^T
_VERONESE_Y = tuple(
    tuple(VERONESE_MONOMIALS.index(tuple((c == a) + (c == b) for c in range(3))) for b in range(3))
    for a in range(3)
)

# the upper-triangle positions of a symmetric 3x3 matrix, in the order of Matrix.upper
_SYM3_UPPER = tuple((a, b) for a in range(3) for b in range(a, 3))

# one diagonal matrix for each inertia of a nonzero real symmetric 3x3 matrix up to sign
_INERTIA_REPRESENTATIVES = ((1, 1, 1), (1, 1, -1), (1, 1, 0), (1, -1, 0), (1, 0, 0))

# the normalized inertias (pos, neg, zero) of the nonzero real symmetric 3x3 matrices
_NONZERO_INERTIAS = frozenset(
    Signature(p, n, 3 - p - n).normalized() for p in range(4) for n in range(4 - p) if p + n
)


def _adjugate_terms(i: int, j: int):
    """Entry (i, j) of adj Y as ((a, b), c) items of c * y_a y_b: the cyclic cofactor rule."""
    y = _VERONESE_Y
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return (((y[i1][j1], y[i2][j2]), 1), ((y[i1][j2], y[i2][j1]), -1))


def adjugate_form(a) -> QuadraticForm:
    """q_A(y) = tr(A adj Y) for a symmetric 3x3 matrix A, given as rows of numbers.

    q_A vanishes where Y has rank 1, so it is a quadric through the surface.
    Each term c * y_p y_q adds c to entries (p, q) and (q, p) of the matrix
    of 2 q_A.
    """
    twice = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            if a[i][j]:
                for (p, q), c in _adjugate_terms(i, j):
                    twice[p][q] += a[i][j] * c
                    twice[q][p] += a[i][j] * c
    return QuadraticForm(Matrix(twice).scale(Fraction(1, 2)))


def _sym3(a: int, b: int) -> list[list[int]]:
    """The symmetric 3x3 matrix with ones at (a, b) and (b, a): E_ab + E_ba, or E_aa."""
    return [[int((p, q) in ((a, b), (b, a))) for q in range(3)] for p in range(3)]


def _sym3_action(k: int, l: int) -> Matrix:
    """The map A -> 2 tr(u) A - u A - A u^T for u = E_kl, on upper triangles.

    Row r is the upper triangle of the image of the basis matrix at
    ``_SYM3_UPPER[r]``; entry (p, q) of the image is
    2 [k = l] A_pq - [p = k] A_lq - [q = k] A_pl.
    """
    rows = []
    for a, b in _SYM3_UPPER:
        s = _sym3(a, b)
        rows.append([2 * (k == l) * s[p][q] - (p == k) * s[l][q] - (q == k) * s[p][l] for p, q in _SYM3_UPPER])
    return Matrix(rows)


def _equivariant_units(forms: tuple[QuadraticForm, ...]) -> frozenset[tuple[int, int]]:
    """The units u = E_kl on which A -> q_A intertwines the two gl3 actions.

    ``forms`` are the q_A of the basis matrices at ``_SYM3_UPPER`` and must
    lie in ``veronese_data()``.  In the coordinates C of the forms on the
    rows R of the cached ``_veronese_action_table`` (their entries at R's
    pivots), u acts on the forms by the block Phi_u, and the identity
    D_u^T M(q_A) + M(q_A) D_u = M(q_{2 tr(u) A - u A - A u^T}) for every
    basis A is the 6x6 identity C Phi_u = L_u C, with L_u from
    ``_sym3_action``.  It needs the table to have no residual: gl3 maps the
    ideal into itself.
    """
    table = _veronese_action_table()
    if table.residual:
        return frozenset()
    red, k = table.reduced, table.reduced.rows
    pivots = [red.row(i).nonzero_columns()[0] for i in range(k)]
    coords = Matrix.stack([q.matrix.upper() for q in forms]).reindex(range(len(forms)), pivots)
    blocks = table.blocks
    return frozenset(
        unit
        for j, unit in enumerate(_GL3_UNITS)
        if coords * blocks.row(j).reshape(k, k).transpose() == _sym3_action(*unit) * coords
    )


def veronese_signature_witnesses() -> frozenset[Signature]:
    """The normalized signatures of the nonzero real quadrics through the Veronese surface.

    Certified by three exact facts (the argument is in ``verify``'s
    ``veronese-signatures`` check), raising RuntimeError if one fails:

    1. the six q_A of the basis matrices at ``_SYM3_UPPER`` span
       ``veronese_data()``;
    2. A -> q_A is gl3-equivariant on all nine matrix units
       (``_equivariant_units``);
    3. ``_INERTIA_REPRESENTATIVES`` has one matrix of each nonzero inertia
       up to sign.

    The result is the signatures of the q_A of those five representatives.
    """
    forms = tuple(adjugate_form(_sym3(a, b)) for a, b in _SYM3_UPPER)
    if not FormSpan(forms).equals(veronese_data()):
        raise RuntimeError("the adjugate forms do not span the Veronese quadrics")
    if _equivariant_units(forms) != frozenset(itertools.product(range(3), repeat=2)):
        raise RuntimeError("the adjugate forms are not gl3-equivariant")
    diagonals = [[[r[p] * (p == q) for q in range(3)] for p in range(3)] for r in _INERTIA_REPRESENTATIVES]
    if {signature(Matrix(d)) for d in diagonals} != _NONZERO_INERTIAS:
        raise RuntimeError("the representatives miss a nonzero inertia")
    return frozenset(signature(adjugate_form(d).matrix) for d in diagonals)
