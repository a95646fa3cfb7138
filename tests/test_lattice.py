"""Lattice polygons, involutions, and the grid classification."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial import lattice, verify
import oracles
from celestial.lattice import (
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    LatticeType,
    UnimodularInvolution,
    convex_hull,
    degree,
    forbidden_edge,
    lattice_counts,
    minimal_width_directions,
    stable_directions,
    unimodular_equivalent,
    width,
)

HEXAGON = convex_hull([(-1, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0)])
SQUARE = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1)])
DIAMOND = convex_hull([(-1, 0), (0, 1), (1, 0), (0, -1)])
VERONESE_TRIANGLE = convex_hull([(-1, 1), (1, -1), (-1, -1)])
UNIT_SQUARE = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_hull_of_grid_is_square():
    pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    assert set(convex_hull(pts).vertices) == {(-1, -1), (1, -1), (1, 1), (-1, 1)}


def test_hull_of_hexagon_points():
    assert len(HEXAGON.vertices) == 6
    assert set(HEXAGON.vertices) == {(-1, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0)}


def test_hull_ignores_interior_points():
    with_interior = convex_hull([(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)])
    assert set(with_interior.vertices) == set(SQUARE.vertices)


def test_hull_rejects_degenerate_input():
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 1), (2, 2)])


def _segment_points(a, b):
    g = gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
    return [
        (a[0] + k * (b[0] - a[0]) // g, a[1] + k * (b[1] - a[1]) // g)
        for k in range(g + 1)
    ]


def _counts_by_enumeration(poly):
    """Independent interior/boundary oracle via explicit segment membership."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    boundary = set()
    for a, b in poly.edges:
        boundary.update(_segment_points(a, b))
    interior = 0
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) in boundary:
                continue
            if poly.contains((x, y)):
                interior += 1
    return interior, len(boundary)


@pytest.mark.parametrize(
    "poly, expected",
    [
        (SQUARE, (1, 8)),
        (HEXAGON, (1, 6)),
        (VERONESE_TRIANGLE, (0, 6)),
        (DIAMOND, (1, 4)),
        (UNIT_SQUARE, (0, 4)),
    ],
)
def test_lattice_counts(poly, expected):
    assert lattice_counts(poly) == expected
    assert _counts_by_enumeration(poly) == expected


def test_degrees():
    assert degree(SQUARE) == 8
    assert degree(HEXAGON) == 6
    assert degree(UNIT_SQUARE) == 2


def test_pick_relation_on_all_grid_polygons():
    polys = lattice.grid_polygons()
    assert len(polys) > 50
    for poly in polys:
        assert degree(poly) == poly.twice_area()


def test_widths_of_the_hexagon():
    assert width(HEXAGON, (1, -1)) == 2
    assert width(HEXAGON, (1, 1)) == 4
    assert width(SQUARE, (1, 0)) == 2


def test_width_rejects_imprimitive_direction():
    with pytest.raises(ValueError):
        width(SQUARE, (2, 2))


def test_minimal_width_directions():
    assert minimal_width_directions(SQUARE) == {(1, 0), (0, 1)}
    assert minimal_width_directions(HEXAGON) == {(1, 0), (0, 1), (1, -1)}
    assert minimal_width_directions(DIAMOND) == {(1, 0), (0, 1), (1, 1), (1, -1)}


def test_minimal_width_search_bound_is_conservative():
    # the span bound agrees with an exhaustive search over entries up to 5
    exhaustive = [
        lattice._canonical_direction((a, b))
        for a in range(6)
        for b in range(-5, 6)
        if (a, b) != (0, 0) and gcd(a, abs(b)) == 1
    ]
    for poly in lattice.grid_polygons():
        widths = {d: width(poly, d) for d in exhaustive}
        w = min(widths.values())
        assert minimal_width_directions(poly) == {d for d, val in widths.items() if val == w}


unimodular_maps = st.sampled_from(
    [m for m in oracles.unimodular_matrices() if max(abs(x) for r in m for x in r) <= 2]
)


@given(unimodular_maps, st.permutations(list(range(9))))
@settings(max_examples=40)
def test_width_is_a_unimodular_invariant(u, perm):
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    pts = [grid[i] for i in perm[:5]]
    try:
        poly = convex_hull(pts)
    except ValueError:
        return
    (a, b), (c, d) = u
    image = convex_hull([(a * x + b * y, c * x + d * y) for x, y in poly.vertices])
    for direction in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        img_dir = (a * direction[0] + b * direction[1], c * direction[0] + d * direction[1])
        g = gcd(abs(img_dir[0]), abs(img_dir[1]))
        img_dir = (img_dir[0] // g, img_dir[1] // g)
        assert width(poly, direction) == width(image, img_dir)


def test_involution_validation():
    with pytest.raises(ValueError):
        UnimodularInvolution(((1, 1), (0, 1)))  # not an involution
    with pytest.raises(ValueError):
        UnimodularInvolution(((2, 0), (0, 1)))  # not unimodular


def test_forbidden_edges():
    assert not forbidden_edge(SQUARE, SIGMA_0)
    assert forbidden_edge(UNIT_SQUARE, SIGMA_0)
    quad = convex_hull([(-1, -1), (-1, 0), (1, 1), (0, -1)])
    assert forbidden_edge(quad, SIGMA_0)
    assert not forbidden_edge(quad, SIGMA_3)


def test_unimodular_equivalence_examples():
    rotated = convex_hull([(y, -x) for x, y in SQUARE.vertices])
    a = LatticeType.of(SQUARE, SIGMA_0)
    b = LatticeType.of(rotated, SIGMA_0)
    assert unimodular_equivalent(a, b)

    ring = LatticeType.of(DIAMOND, SIGMA_2)
    spindle = LatticeType.of(DIAMOND, SIGMA_1)
    assert not unimodular_equivalent(ring, spindle)

    reflection_square = LatticeType.of(SQUARE, SIGMA_1)
    rotation_square = LatticeType.of(SQUARE, SIGMA_2)
    assert not unimodular_equivalent(reflection_square, rotation_square)


def test_unimodular_equivalence_is_the_bounded_affine_search():
    # on every involution-preserved grid candidate, against the search over
    # matrices with entries up to 3 and the translations they allow; that
    # search contains the linear one (t = 0)
    candidates = [
        LatticeType.of(poly, inv)
        for poly in lattice.grid_polygons()
        for inv in lattice.STANDARD_INVOLUTIONS
        if inv.preserves(poly)
    ]
    assert len(candidates) == 210
    joined_pairs = 0
    for a, b in itertools.combinations_with_replacement(candidates, 2):
        joined = unimodular_equivalent(a, b)
        assert unimodular_equivalent(b, a) == joined
        # an affine unimodular map keeps the vertex count and the area
        if len(a.polygon.vertices) != len(b.polygon.vertices) or degree(a.polygon) != degree(b.polygon):
            assert not joined
            continue
        assert joined == oracles.affine_equivalent(a, b)
        joined_pairs += joined
    assert joined_pairs == 1726


def test_stable_directions_of_the_two_sphere():
    corner = convex_hull([(-1, -1), (0, -1), (0, 0), (-1, 0)])
    assert stable_directions(corner, SIGMA_3) == {(1, 1), (1, -1)}


def test_classify_grid_classes_and_merge():
    raw, unmatched = verify.match_lattice_rows(lattice.classify_grid())
    assert unmatched == []
    assert len(raw) == 10
    merged = [row for row in raw if row.merges_with is None]
    assert [row.ref for row in merged] == list("abcdefgh")
    by_ref = {row.ref: row for row in raw}
    assert by_ref["a'"].merges_with == "a"
    assert by_ref["a''"].merges_with == "a"
    assert by_ref["e"].lattice_type.involution == SIGMA_2
    assert by_ref["f"].lattice_type.involution == SIGMA_1
    assert set(by_ref["e"].lattice_type.directions) == {(1, 0), (0, 1), (1, 1), (1, -1)}
    assert set(by_ref["h"].lattice_type.directions) == {(1, 1), (1, -1)}
    names = {row.ref: row.name for row in raw}
    assert names["b"] == "dP6"
    assert names["c"] == "weak dP6"
    assert names["g"] == "horn cyclide"


def test_classified_involutions_preserve_their_polygons():
    for lt in lattice.classify_grid():
        assert lt.involution.preserves(lt.polygon)
        for d in lt.directions:
            assert lt.involution.fixes_direction(d)


# the quadric cone P(1,1,2): degree-2 triangles with one singular vertex,
# each with the one involution that preserves it without fixing a short edge
CONE_PAIRS = [
    (convex_hull([(-1, -1), (1, -1), (0, 0)]), SIGMA_1),
    (convex_hull([(-1, 0), (0, -1), (1, 0)]), SIGMA_1),
    (convex_hull([(-1, 0), (1, 0), (0, 1)]), SIGMA_1),
    (convex_hull([(-1, 1), (0, 0), (1, 1)]), SIGMA_1),
]


def test_excluded_candidates():
    # the triangle with the diagonal involution keeps only one stable
    # minimal-width direction and is excluded
    tri = LatticeType.of(VERONESE_TRIANGLE, SIGMA_3)
    global_min = minimal_width_directions(VERONESE_TRIANGLE)
    stable = [d for d in global_min if SIGMA_3.fixes_direction(d)]
    assert stable == [(1, -1)]
    assert not lattice._survives(VERONESE_TRIANGLE, SIGMA_3)
    # with the trivial involution the same triangle is the smooth model
    assert lattice._survives(VERONESE_TRIANGLE, SIGMA_0)
    # the cone passes every other filter, and only the degree-2 rule rejects it
    for poly, inv in CONE_PAIRS:
        assert degree(poly) == 2 and poly.singular_vertex_count() == 1
        assert inv.preserves(poly) and not forbidden_edge(poly, inv)
        assert not lattice._survives(poly, inv)
    assert lattice._survives(UNIT_SQUARE, SIGMA_3)


def test_two_fixed_directions_of_width_three_are_no_circles():
    # a circle is a conic: the fixed directions of minimal width must have width 2
    square = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
    fixed = [d for d in minimal_width_directions(square) if SIGMA_0.fixes_direction(d)]
    assert sorted(fixed) == [(0, 1), (1, 0)]
    assert {width(square, d) for d in fixed} == {3}
    assert SIGMA_0.preserves(square) and not forbidden_edge(square, SIGMA_0)
    assert not lattice._survives(square, SIGMA_0)


def _strip_hulls(a, k):
    """The hulls of the lattice points with 0 <= x <= 2 and c <= a*x + k*y <= c + 2, c < k."""
    hulls = {}
    for c in range(k):
        points = [(x, y) for x in range(3) for y in range(-3, 4) if c <= a * x + k * y <= c + 2]
        for r in range(3, len(points) + 1):
            for subset in itertools.combinations(points, r):
                try:
                    hull = convex_hull(subset)
                except ValueError:
                    continue
                hulls.setdefault(hull.vertices, hull)
    return list(hulls.values())


def test_two_directions_of_width_two_put_a_polygon_in_the_grid():
    # Up to GL2(Z) the two independent functionals of width <= 2 are x and
    # a*x + k*y with 0 <= a < k and gcd(a, k) = 1, and a translation puts x in
    # [0, 2] and the second one in [c, c + 2] with 0 <= c < k.  In the
    # coordinates (x, a*x + k*y) a triangle of the polygon has k times its
    # area and fits in a 2x2 square, so k <= 4; k <= 6 is covered.
    grid = [LatticeType.of(poly, SIGMA_0) for poly in lattice.grid_polygons()]
    found = {}
    for k in range(1, 7):
        for a in range(k):
            if gcd(a, k) != 1:
                continue
            hulls = _strip_hulls(a, k)
            found[k] = found.get(k, 0) + len(hulls)
            for hull in hulls:
                lt = LatticeType.of(hull, SIGMA_0)
                assert any(unimodular_equivalent(lt, g) for g in grid), hull.vertices
    assert found == {1: 168, 2: 13, 3: 4, 4: 0, 5: 0, 6: 0}


def test_no_compatible_affine_map_joins_two_classified_orbits():
    orbits = lattice.classify_grid()
    assert len(orbits) == 10
    for a, b in itertools.combinations(orbits, 2):
        assert not oracles.affine_equivalent(a, b)


def test_orbits_that_a_translation_joins_all_fail_the_filters():
    # the affine search sees translates: (0, 1) moves one sigma_1 cone onto
    # another that no linear map reaches
    a, b = (LatticeType.of(poly, inv) for poly, inv in (CONE_PAIRS[0], CONE_PAIRS[2]))
    assert not oracles.linear_equivalent(a, b) and oracles.affine_equivalent(a, b)
    assert unimodular_equivalent(a, b)
    orbits = []
    for poly in lattice.grid_polygons():
        for inv in lattice.STANDARD_INVOLUTIONS:
            if inv.preserves(poly):
                lt = LatticeType.of(poly, inv)
                orbit = next((o for o in orbits if oracles.linear_equivalent(o[0], lt)), None)
                if orbit is None:
                    orbits.append([lt])
                else:
                    orbit.append(lt)
    # affine unimodular maps keep the area, hence the degree
    joined = {
        k
        for i, j in itertools.combinations(range(len(orbits)), 2)
        if degree(orbits[i][0].polygon) == degree(orbits[j][0].polygon)
        and oracles.affine_equivalent(orbits[i][0], orbits[j][0])
        for k in (i, j)
    }
    members = [lt for k in joined for lt in orbits[k]]
    assert not any(lattice._survives(lt.polygon, lt.involution) for lt in members)
    # only the four cones get past the edge rule, and the degree-2 rule stops them
    assert {
        (lt.polygon, lt.involution)
        for lt in members
        if not forbidden_edge(lt.polygon, lt.involution)
    } == set(CONE_PAIRS)


def _all_directions(poly):
    return frozenset(lattice._candidate_directions(poly))


@pytest.mark.parametrize(
    "owner, name, replacement, extra_orbits",
    [
        # the conic rule alone stops the degree-1 triangle, whose fixed edges
        # are lines of width 1
        (lattice, "forbidden_edge", lambda poly, inv: False, 12),
        # the four sigma_1 cones are translates of one another: one orbit
        (lattice.LatticePolygon, "singular_vertex_count", lambda poly: 0, 1),
        (lattice, "minimal_width_directions", _all_directions, 3),
    ],
    ids=["forbidden-edge", "cone", "minimal-width"],
)
def test_lattice_classes_fails_without_each_filter(
    monkeypatch, owner, name, replacement, extra_orbits
):
    monkeypatch.setattr(owner, name, replacement)
    (result,) = verify.run_checks(only="lattice-classes")
    assert not result.ok
    # every extra orbit is named, none is reported as a crash
    orbits = result.detail.split("; ")
    assert len(orbits) == extra_orbits
    for text in orbits:
        assert text.startswith("orbit ((") and text.endswith(")) matches no table row")
    if name == "singular_vertex_count":
        assert orbits[0] == "orbit ((-1, -1), (1, -1), (0, 0)) ((-1, 0), (0, 1)) matches no table row"
