"""Lattice polygons with unimodular involutions and their classification.

A toric surface with an antiholomorphic involution leaves behind a convex
lattice polygon together with a linear involution of Z^2 preserving it;
the directions of minimal lattice width that the involution fixes up to
sign record the toric families of circles on the surface.  This module
enumerates every such pair inside the centered 3x3 grid, keeps those that
pass filters computed from the pair itself, and returns one representative
per orbit under affine unimodular equivalence compatible with the
involutions.  It reads no table: the paper's rows and names live in
``verify``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

Point = tuple[int, int]
IntMatrix = tuple[tuple[int, int], tuple[int, int]]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class LatticePolygon:
    """Convex polygon with vertices in Z^2, counterclockwise, dimension 2."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if n < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for i in range(n):
            if _cross(self.vertices[i], self.vertices[(i + 1) % n], self.vertices[(i + 2) % n]) <= 0:
                raise ValueError("vertices must be strictly convex and counterclockwise")

    @property
    def edges(self) -> tuple[tuple[Point, Point], ...]:
        n = len(self.vertices)
        return tuple((self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n))

    def twice_area(self) -> int:
        s = 0
        for (x0, y0), (x1, y1) in self.edges:
            s += x0 * y1 - x1 * y0
        return s

    def contains(self, p: Point) -> bool:
        return all(_cross(a, b, p) >= 0 for a, b in self.edges)

    def lattice_points(self) -> tuple[Point, ...]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        pts = [
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if self.contains((x, y))
        ]
        return tuple(sorted(pts))

    def boundary_points(self) -> tuple[Point, ...]:
        pts = {v for v in self.vertices}
        for (x0, y0), (x1, y1) in self.edges:
            g = gcd(abs(x1 - x0), abs(y1 - y0))
            for k in range(1, g):
                pts.add((x0 + k * (x1 - x0) // g, y0 + k * (y1 - y0) // g))
        return tuple(sorted(pts))

    def singular_vertex_count(self) -> int:
        """Vertices whose primitive edge directions do not span Z^2.

        Each such corner is an isolated singular point of the projective
        toric surface attached to the polygon.
        """
        n = len(self.vertices)
        count = 0
        for i in range(n):
            v = self.vertices[i]
            u1 = _primitive_between(v, self.vertices[(i - 1) % n])
            u2 = _primitive_between(v, self.vertices[(i + 1) % n])
            if abs(u1[0] * u2[1] - u1[1] * u2[0]) != 1:
                count += 1
        return count


def _primitive_between(a: Point, b: Point) -> Point:
    dx, dy = b[0] - a[0], b[1] - a[1]
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g)


def convex_hull(points) -> LatticePolygon:
    """Minimal convex polygon containing the points (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        raise ValueError("need at least 3 distinct points")
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        raise ValueError("points are collinear")
    return LatticePolygon(tuple(verts))


def lattice_counts(p: LatticePolygon) -> tuple[int, int]:
    """(interior, boundary) lattice point counts."""
    boundary = len(p.boundary_points())
    return len(p.lattice_points()) - boundary, boundary


def degree(p: LatticePolygon) -> int:
    """Degree of the attached surface: 2*interior + boundary - 2 (= 2*area)."""
    i, b = lattice_counts(p)
    return 2 * i + b - 2


@dataclass(frozen=True)
class UnimodularInvolution:
    """An order-2 linear map of Z^2 with determinant +-1."""

    m: IntMatrix

    def __post_init__(self):
        (a, b), (c, d) = self.m
        if a * d - b * c not in (1, -1):
            raise ValueError("matrix is not unimodular")
        if _mat_mul(self.m, self.m) != ((1, 0), (0, 1)):
            raise ValueError("matrix is not an involution")

    def apply(self, p: Point) -> Point:
        return _apply(self.m, p)

    def fixes_direction(self, d: Point) -> bool:
        img = self.apply(d)
        return img == d or img == (-d[0], -d[1])

    def preserves(self, p: LatticePolygon) -> bool:
        return set(map(self.apply, p.vertices)) == set(p.vertices)


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _apply(m: IntMatrix, p: Point) -> Point:
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


SIGMA_0 = UnimodularInvolution(((1, 0), (0, 1)))
SIGMA_1 = UnimodularInvolution(((-1, 0), (0, 1)))
SIGMA_2 = UnimodularInvolution(((-1, 0), (0, -1)))
SIGMA_3 = UnimodularInvolution(((0, 1), (1, 0)))
STANDARD_INVOLUTIONS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)

# presentation labels for the four direction classes that occur in the grid
ARROWS = {(1, 0): "right", (0, 1): "down", (1, 1): "down-left", (1, -1): "down-right"}


def _canonical_direction(d: Point) -> Point:
    if d[0] < 0 or (d[0] == 0 and d[1] < 0):
        return (-d[0], -d[1])
    return d


def width(p: LatticePolygon, direction: Point) -> int:
    """Lattice width along a primitive direction.

    The measuring functional is the primitive linear form whose kernel is
    spanned by the direction; width is its max minus min over the polygon.
    """
    a, b = direction
    if gcd(abs(a), abs(b)) != 1:
        raise ValueError("direction must be primitive")
    vals = [b * x - a * y for x, y in p.vertices]
    return max(vals) - min(vals)


def _candidate_directions(p: LatticePolygon):
    xs = [v[0] for v in p.vertices]
    ys = [v[1] for v in p.vertices]
    bound = max(max(xs) - min(xs), max(ys) - min(ys))
    dirs = set()
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) != (0, 0) and gcd(a, abs(b)) == 1:
                dirs.add(_canonical_direction((a, b)))
    return sorted(dirs)


def minimal_width_directions(p: LatticePolygon) -> frozenset[Point]:
    """All primitive directions (up to sign) of globally minimal width.

    Directions wider than the coordinate span in both axes are dominated, so
    the search is bounded by the span; the bound is covered by a test against
    an exhaustive search.
    """
    return _narrowest(p, _candidate_directions(p))


def stable_directions(p: LatticePolygon, inv: UnimodularInvolution) -> frozenset[Point]:
    """Involution-fixed directions of minimal width among the fixed ones.

    For every surface of degree > 2 this set equals the involution-fixed
    part of the global minimal-width directions.  Degree 2 is special: the
    quadric is covered by lines and the minimal-width criterion is vacuous,
    but the involution still singles out its fixed direction classes.
    """
    return _narrowest(p, [d for d in _candidate_directions(p) if inv.fixes_direction(d)])


def _narrowest(p: LatticePolygon, dirs) -> frozenset[Point]:
    """The directions among ``dirs`` of least width on p; none if there are none."""
    widths = {d: width(p, d) for d in dirs}
    w = min(widths.values(), default=None)
    return frozenset(d for d, val in widths.items() if val == w)


def forbidden_edge(p: LatticePolygon, inv: UnimodularInvolution) -> bool:
    """True iff some boundary edge with exactly two lattice points is fixed.

    Such an edge would put a real line on the surface, which the ambient
    sphere does not allow.
    """
    for a, b in p.edges:
        if gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) == 1:
            if {inv.apply(a), inv.apply(b)} == {a, b}:
                return True
    return False


@dataclass(frozen=True)
class LatticeType:
    """A polygon, a compatible involution, and its circle directions."""

    polygon: LatticePolygon
    involution: UnimodularInvolution
    directions: frozenset[Point]

    @staticmethod
    def of(polygon: LatticePolygon, involution: UnimodularInvolution) -> "LatticeType":
        if not involution.preserves(polygon):
            raise ValueError("involution does not preserve the polygon")
        return LatticeType(polygon, involution, stable_directions(polygon, involution))


def unimodular_equivalent(a: LatticeType, b: LatticeType) -> bool:
    """Equivalence by an affine unimodular map compatible with the involutions.

    A map x -> m x + t taking one polygon onto the other sends consecutive
    vertices to consecutive vertices, in order or reversed, so where three
    consecutive vertices of ``a`` go fixes it.  Each start vertex of ``b`` is
    tried in both orientations; a map counts when m is integral with
    determinant +-1, the vertex sets match, m sigma_a = sigma_b m and
    sigma_b t = t.
    """
    va, vb = a.polygon.vertices, b.polygon.vertices
    n = len(va)
    if len(vb) != n:
        return False
    p0, p1, p2 = va[:3]
    # m = F E^-1, with the edge vectors at p1 and at its image as columns
    edges = _columns(p0, p1, p2)
    det = edges[0][0] * edges[1][1] - edges[0][1] * edges[1][0]
    adjugate = ((edges[1][1], -edges[0][1]), (-edges[1][0], edges[0][0]))
    targets = set(vb)
    for k in range(n):
        for step in (1, -1):
            q0, q1, q2 = vb[k], vb[(k + step) % n], vb[(k + 2 * step) % n]
            scaled = _mat_mul(_columns(q0, q1, q2), adjugate)
            if any(x % det for row in scaled for x in row):
                continue
            m = tuple(tuple(x // det for x in row) for row in scaled)
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] not in (1, -1):
                continue
            image = _apply(m, p0)
            t = (q0[0] - image[0], q0[1] - image[1])
            if (
                {(x + t[0], y + t[1]) for x, y in (_apply(m, v) for v in va)} == targets
                and _mat_mul(m, a.involution.m) == _mat_mul(b.involution.m, m)
                and b.involution.apply(t) == t
            ):
                return True
    return False


def _columns(p0: Point, p1: Point, p2: Point) -> IntMatrix:
    """The matrix with columns p1 - p0 and p2 - p1."""
    return ((p1[0] - p0[0], p2[0] - p1[0]), (p1[1] - p0[1], p2[1] - p1[1]))


_GRID = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]


def grid_polygons() -> list[LatticePolygon]:
    """All distinct convex lattice polygons inside the centered 3x3 grid."""
    seen = {}
    for r in range(3, 10):
        for pts in itertools.combinations(_GRID, r):
            try:
                hull = convex_hull(pts)
            except ValueError:
                continue
            seen.setdefault(hull.vertices, hull)
    return list(seen.values())


def _survives(poly: LatticePolygon, inv: UnimodularInvolution) -> bool:
    """Whether a candidate pair passes every filter, each computed from the pair."""
    # the real structure maps the surface, hence its polygon, to itself
    if not inv.preserves(poly):
        return False
    # a fixed primitive edge is a real line, and the sphere contains none
    if forbidden_edge(poly, inv):
        return False
    # degree 2 spans a P^3, so the surface is S^2 itself: a smooth quadric,
    # never the cone P(1,1,2) (the triangle with one singular vertex)
    if degree(poly) == 2:
        return poly.singular_vertex_count() == 0
    # two circles through a general point: two involution-fixed directions of
    # minimal width, each a pencil of circles; a circle is a conic, so the
    # curves of the pencil have degree 2 and the width is exactly 2
    fixed = [d for d in minimal_width_directions(poly) if inv.fixes_direction(d)]
    return len(fixed) >= 2 and min(width(poly, d) for d in fixed) == 2


def classify_grid() -> list[LatticeType]:
    """Classify all involution-polygon pairs in the centered 3x3 grid.

    Returns one ``LatticeType`` per unimodular orbit of the surviving
    pairs: the first survivor of each orbit, in grid order.  Naming the
    orbits is left to the caller (``verify.match_lattice_rows``).

    Orbits are taken under affine unimodular maps compatible with the
    involutions (``unimodular_equivalent``), so translates share an orbit.
    """
    orbits: list[LatticeType] = []
    for poly in grid_polygons():
        for inv in STANDARD_INVOLUTIONS:
            if _survives(poly, inv):
                lt = LatticeType.of(poly, inv)
                if not any(unimodular_equivalent(o, lt) for o in orbits):
                    orbits.append(lt)
    return orbits
