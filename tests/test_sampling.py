"""The float quadrics and point samples of the export surfaces.

``sampling.sample`` checks and projects every point in one compiled kernel
per surface; ``oracles.loop_sample`` is the point-by-point loop it replaced,
and the kernel must give its floats bit for bit.
"""

import ast
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celestial import cli, sampling
from celestial.segre import mu_transform, toric_projection
from oracles import fstring_write_csv, fstring_write_ply, loop_sample, node_surface_points

ROOT = Path(__file__).resolve().parents[1]


def test_surface_quadrics_keep_both_parts_of_complex_forms():
    counts = {s: len(sampling.surface_quadrics(s)) for s in sampling.SURFACES}
    # six of the nine dp6 quadrics are not real in the x frame of sigma_2
    assert counts == {"dp6": 15, "ring": 2, "spindle": 2, "horn": 2, "veronese": 6}
    span = toric_projection({5, 6})
    q = next(q for q in span.basis if not mu_transform(2, q, span.coords).is_real)
    x = mu_transform(2, q, span.coords)
    im = [[float(a.im) for a in row] for row in x.matrix.entries()]
    assert im in sampling.surface_quadrics("dp6")


def test_unknown_surface_is_rejected():
    with pytest.raises(ValueError, match="unknown surface"):
        sampling.surface_quadrics("klein-bottle")


def _dense_residual(forms, point):
    """The dense loop that the sparse residual replaced, kept as the reference."""
    norm = 0
    for x in point:
        norm += x * x
    worst = 0.0
    for mat in forms:
        val = 0.0
        for i, row in enumerate(mat):
            for j, a in enumerate(row):
                if a:
                    val += a * point[i] * point[j]
        worst = max(worst, abs(val) / norm)
    return worst


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_sparse_residual_is_the_dense_one_bit_for_bit(surface):
    forms = sampling.surface_quadrics(surface)
    sparse = sampling.sparse_forms(forms)
    pts, _ = sampling.surface_points(surface, 24)
    for p in pts:
        assert sampling.residual(sparse, p) == _dense_residual(forms, p)


def _hex_points(pts):
    return [tuple(map(float.hex, p)) for p in pts]


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_grid_points_are_the_node_by_node_points_bit_for_bit(surface):
    for resolution in (*range(2, 41), 64, 97, 120):
        pts, skipped = sampling.surface_points(surface, resolution)
        want, want_skipped = node_surface_points(surface, resolution)
        assert (_hex_points(pts), skipped) == (_hex_points(want), want_skipped)


@pytest.mark.parametrize("surface", ["spindle", "horn"])
def test_a_cyclide_at_resolution_2_has_no_points_and_still_fails_to_sample(surface):
    # every node of the 2x2 grid is a pole of tan(b / 2); the empty cloud is
    # still an IndexError, as the benchmark's reference records it
    assert sampling.surface_points(surface, 2) == ([], 4)
    with pytest.raises(IndexError):
        sampling.sample(surface, 2)


def test_the_cli_fails_on_a_cyclide_at_resolution_2_before_opening_the_file(tmp_path):
    # the export keeps the IndexError of the empty cloud, which the benchmark's
    # reference records, until ROADMAP item 1's `benchmark` change makes it an
    # empty cloud; the file is never created
    out = tmp_path / "f.csv"
    with pytest.raises(IndexError):
        cli.main(["sample", "--surface", "spindle", "--resolution", "2", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_dropping_repeated_forms_keeps_the_residual(surface):
    forms = sampling.sparse_forms(sampling.surface_quadrics(surface))
    kept = sampling._distinct_forms(forms)
    assert len(kept) == {"dp6": 9}.get(surface, len(forms))
    pts, _ = sampling.surface_points(surface, 24)
    for p in pts:
        assert sampling.residual(kept, p) == sampling.residual(forms, p)


# the number of coordinates of each surface's points
_DIMS = {"dp6": 7, "ring": 5, "spindle": 5, "horn": 5, "veronese": 6}


# projection entries: signed zeros, ints, fractions and floats of every size
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-300, 300)),
    st.floats(-1e300, 1e300),
)


@st.composite
def _sample_cases(draw):
    surface = draw(st.sampled_from(sampling.SURFACES))
    resolution = draw(st.integers(3, 60))
    if draw(st.booleans()):
        return surface, resolution, None
    width = _DIMS[surface] - 1
    rows = st.lists(_ENTRIES, min_size=width, max_size=width)
    return surface, resolution, draw(st.lists(rows, min_size=3, max_size=3))


def _hex(cloud):
    return [tuple(map(float.hex, p)) for p in cloud.points], cloud.skipped, cloud.max_residual.hex()


@given(_sample_cases())
@settings(max_examples=40, deadline=None)
def test_kernel_is_the_point_loop_bit_for_bit(case):
    assert _hex(sampling.sample(*case)) == _hex(loop_sample(*case))


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_every_surface_matches_the_point_loop_with_the_default_projection(surface):
    assert _hex(sampling.sample(surface, 40)) == _hex(loop_sample(surface, 40))


# where %.12g changes form: signed zeros, subnormals, the smallest normal,
# the switch to exponents at 1e-4 and 1e12, and 1e16, where floats stop
# holding every integer
_EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.99999999999e-5, 0.1, -1.5,
    999999999999.0, 999999999999.5, 1e12, 1e15, 9999999999999998.0, 1e16, 1.0000000000000002e16,
]


def _edge_cloud():
    vals = _EDGE_VALUES
    points = [(x, vals[(k + 7) % len(vals)], -vals[(k + 3) % len(vals)]) for k, x in enumerate(vals)]
    return sampling.PointCloud(points, 0, 0.0)


def _assert_same_files(cloud, tmp_path):
    for write, reference in ((sampling.write_csv, fstring_write_csv), (sampling.write_ply, fstring_write_ply)):
        write(cloud, tmp_path / "got")
        reference(cloud, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def test_writers_match_the_fstring_writers_on_edge_values(tmp_path):
    _assert_same_files(_edge_cloud(), tmp_path)
    _assert_same_files(sampling.PointCloud([], 0, 0.0), tmp_path)


@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20))
@settings(max_examples=60, deadline=None)
def test_writers_match_the_fstring_writers_on_any_floats(points):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_same_files(sampling.PointCloud(points, 0, 0.0), Path(tmp))


@pytest.mark.parametrize(
    "proj",
    [[[1.0] * 4] * 2, [[1.0] * 4] * 4, [[1.0] * 4, [1.0] * 3, [1.0] * 4], [[1.0] * 5] * 3],
    ids=["two-rows", "four-rows", "short-row", "long-row"],
)
def test_a_misshapen_projection_is_rejected_before_a_kernel_is_built(proj):
    sampling._kernel.cache_clear()
    with pytest.raises(ValueError) as got:
        sampling.sample("ring", 6, proj)
    with pytest.raises(ValueError) as want:
        loop_sample("ring", 6, proj)
    assert str(got.value) == str(want.value) == "projection must be 3 rows of 4 entries"
    assert sampling._kernel.cache_info().currsize == 0


def test_one_kernel_per_surface_serves_every_projection():
    sampling._kernel.cache_clear()
    rng = random.Random(50)
    used = set()
    for _ in range(50):
        surface = rng.choice(sampling.SURFACES)
        proj = [[rng.uniform(-2, 2) for _ in range(_DIMS[surface] - 1)] for _ in range(3)]
        sampling.sample(surface, rng.randint(3, 12), proj)
        used.add(surface)
    info = sampling._kernel.cache_info()
    assert info.currsize == info.misses == len(used) <= 5


@pytest.mark.parametrize("surface", sampling.SURFACES)
def test_kernel_source_holds_names_not_numbers(surface):
    dense = sampling.surface_quadrics(surface)
    source = sampling._kernel_source(sampling.sparse_forms(dense), len(dense[0]))
    constants = {node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)}
    assert constants <= {0, 0.0}


def test_importing_the_cli_builds_no_kernel():
    code = "import celestial.cli\nfrom celestial import sampling\nprint(sampling._kernel.cache_info().currsize)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")
