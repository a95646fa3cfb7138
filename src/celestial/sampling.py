"""Floating-point point-cloud export for the classified surfaces.

This is the one deliberately non-exact corner of the package: real points
of the model surfaces are sampled over an angular grid, checked against
the exact quadrics of the surface to a tight residual, and written out as
CSV or PLY clouds after an optional linear projection to 3-space.
"""

from __future__ import annotations

import io
import math
import os
from functools import lru_cache
from itertools import islice

from .segre import mu_transform, toric_projection
from .workers import run_tasks, worker_count
from . import geometry

_TAN_CUTOFF = 1e8

# the largest normalized quadric residual an exported or checked point may have
RESIDUAL_LIMIT = 1e-9

# the fewest points a chunk of an exported grid may hold, so a grid is split
# only from 2 * MIN_CHUNK points on.  A fork and reap costs about 0.9 ms.
# Split in two on a shared 2-core machine (Python 3.11.7, medians of 31),
# ring CSV exports of 1,600, 2,025, 2,500 and 4,900 points went from 2.44 to
# 2.61 ms (slower), 3.01 to 2.92, 3.76 to 3.24 and 6.74 to 5.17 ms; horn
# broke even at about 2,000 points too, dp6 at about 1,000.
MIN_CHUNK = 1000


# each parametrization maps the grid angles to the surface's points, row by
# row (first angle) and column by column (second angle); a grid node at a
# pole of the angle-to-line substitution gives no point.  Terms of one angle
# alone are computed once per row or column, with the float operations of a
# per-node formula, so every point is the same float.


def _dp6_points(angles):
    cols = [(b, math.cos(b), math.sin(b)) for b in angles]
    pts = []
    for a in angles:
        ca, sa = math.cos(a), math.sin(a)
        pts += [(2.0, ca, sa, cb, sb, math.cos(a - b), -math.sin(a - b)) for b, cb, sb in cols]
    return pts


def _ring_points(angles):
    cols = [(math.cos(b), math.sin(b)) for b in angles]
    pts = []
    for a in angles:
        ca, sa = math.cos(a), math.sin(a)
        pts += [(2.0, ca, sa, cb, sb) for cb, sb in cols]
    return pts


def _circle_lines(angles):
    """tan(b / 2) for each angle b where it is a usable line coordinate: nonzero, finite, not huge."""
    lines = (math.tan(b / 2.0) for b in angles)
    return [u for u in lines if u != 0.0 and math.isfinite(u) and abs(u) <= _TAN_CUTOFF]


def _spindle_points(angles):
    h = 1.0 / math.sqrt(2.0)
    cols = [(h * (u + 1.0 / u), h * (1.0 / u - u)) for u in _circle_lines(angles)]
    pts = []
    for a in angles:
        ca, sa = math.cos(a), math.sin(a)
        pts += [(x0, ca, sa, x3, 1.0) for x0, x3 in cols]
    return pts


def _horn_points(angles):
    root2 = math.sqrt(2.0)
    cols = [(-u - 1.0 / u, u) for u in _circle_lines(angles)]
    pts = []
    for a in angles:
        ca, sa = math.cos(a), math.sin(a)
        pts += [(x0, u, root2, sa / u, ca / u) for x0, u in cols]
    return pts


def _veronese_points(angles):
    lines = [t for t in (math.tan(b / 2.0) for b in angles) if abs(t) <= _TAN_CUTOFF]
    cols = [(t, t * t) for t in lines]
    pts = []
    for s in lines:
        ss = s * s
        pts += [(1.0, s * t, s, t, ss, tt) for t, tt in cols]
    return pts


@lru_cache(maxsize=None)
def _toric_forms(removed: frozenset[int]):
    """The quadrics of a toric projection, moved to the x frame of sigma_2."""
    span = toric_projection(removed)
    return tuple(mu_transform(2, q, span.coords) for q in span.basis)


# each surface: its float parametrization and its exact defining quadrics
_SURFACES = {
    "dp6": (_dp6_points, lambda: _toric_forms(frozenset({5, 6}))),
    "ring": (_ring_points, lambda: _toric_forms(frozenset({1, 2, 5, 6}))),
    "spindle": (_spindle_points, lambda: geometry.cyclide_pipeline()[0].basis),
    "horn": (_horn_points, lambda: geometry.cyclide_pipeline()[1].basis),
    "veronese": (_veronese_points, lambda: geometry.veronese_data().basis),
}

SURFACES = tuple(_SURFACES)


def surface_quadrics(surface: str) -> list[list[list[float]]]:
    """The defining quadrics of a sample surface, as float matrices.

    Each exact form contributes its nonzero real and imaginary parts, since
    a real point must satisfy both.
    """
    if surface not in _SURFACES:
        raise ValueError(f"unknown surface {surface!r}")
    out = []
    for q in _SURFACES[surface][1]():
        rows = q.matrix.entries()
        for part in ([[a.re for a in row] for row in rows], [[a.im for a in row] for row in rows]):
            if any(map(any, part)):
                out.append([[float(x) for x in row] for row in part])
    return out


def surface_points(surface: str, resolution: int):
    """Sample the real surface over a resolution^2 angular grid.

    Returns (points, skipped); grid nodes hitting a degenerate parameter
    (a pole of the angle-to-line substitution) are skipped and counted.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    pts = _SURFACES[surface][0]([2.0 * math.pi * i / resolution for i in range(resolution)])
    return pts, resolution * resolution - len(pts)


def sparse_forms(forms) -> list[list[tuple[int, int, float]]]:
    """Each float matrix as its nonzero (i, j, a) entries, in row-major order.

    Symmetric pairs stay separate terms, so ``residual`` adds the same
    products in the same order as a loop over the dense matrix.
    """
    return [[(i, j, a) for i, row in enumerate(mat) for j, a in enumerate(row) if a] for mat in forms]


def residual(forms, point) -> float:
    """Largest normalized quadric residual |p^T A p| / |p|^2 over the sparse forms.

    The single-point reference of the sample kernel: every sum is a left
    fold, as in the kernel, never ``sum()``, whose float result depends on
    the Python version.
    """
    norm = 0
    for x in point:
        norm += x * x
    worst = 0.0
    for terms in forms:
        val = 0.0
        for i, j, a in terms:
            val += a * point[i] * point[j]
        worst = max(worst, abs(val) / norm)
    return worst


class PointCloud:
    """Projected 3-space samples of one surface."""

    def __init__(self, points: list[tuple[float, float, float]], skipped: int, max_residual: float):
        self.points = points
        self.skipped = skipped
        self.max_residual = max_residual


def default_projection(ambient_dim: int) -> list[list[float]]:
    """Orthographic projection onto the first three affine coordinates."""
    return [[1.0 if j == k else 0.0 for j in range(ambient_dim - 1)] for k in range(3)]


def _distinct_forms(forms):
    """The sparse forms less each one that is, term by term, an earlier one or its negative.

    Float negation is exact, so such a form has the residual of the earlier one.
    """
    kept, seen = [], set()
    for terms in forms:
        if tuple(terms) in seen or tuple((i, j, -a) for i, j, a in terms) in seen:
            continue
        seen.add(tuple(terms))
        kept.append(terms)
    return kept


def _power_of_two(a: float) -> bool:
    return abs(math.frexp(a)[0]) == 0.5


def _kernel_source(forms, dim: int) -> str:
    """The straight-line source of one surface's check-and-project loop.

    Point coordinates are locals p0..p{dim-1}, the coefficient of term t of
    form k is the name c{k}_{t}, and projection entry (k, j) is r{k}_{j}; the
    source holds names and integer indices only, never a float.

    A term whose coefficient c is a power of two reads the product p_i*p_j
    made once per point as q{i}_{j} (i <= j), and so does the norm: then
    c*(p_i*p_j) is the float (c*p_i)*p_j, since scaling by a power of two
    is exact short of overflow and subnormals, which these points never
    reach.  The largest |v_k| is divided by the norm once: rounding is
    monotone, so that is the largest quotient, and ``max`` from 0.0 skips a
    NaN as the comparison ``e > worst`` does.
    """
    coords = [f"p{i}" for i in range(dim)]
    entries = [[f"r{k}_{j}" for j in range(1, dim)] for k in range(3)]
    shared = sorted({(min(i, j), max(i, j)) for terms in forms for i, j, a in terms if _power_of_two(a)})

    def product(i, j):
        """The float p_i*p_j: its shared name if it has one."""
        key = (min(i, j), max(i, j))
        return f"q{key[0]}_{key[1]}" if key in shared else f"p{i}*p{j}"

    lines = [
        "def kernel(pts, proj):",
        "    " + ", ".join(f"({', '.join(row)},)" for row in entries) + " = proj",
        "    worst = 0.0",
        "    out = []",
        "    append = out.append",
        f"    for {', '.join(coords)} in pts:",
    ]
    lines += [f"        q{i}_{j} = p{i}*p{j}" for i, j in shared]
    lines.append("        norm = 0" + "".join(f" + {product(i, i)}" for i in range(dim)))
    for k, terms in enumerate(forms):
        val = "0.0" + "".join(
            f" + c{k}_{t}*{product(i, j) if _power_of_two(a) else f'p{i}*p{j}'}"
            for t, (i, j, a) in enumerate(terms)
        )
        lines.append(f"        v{k} = {val}")
    if forms:
        largest = "max(0.0" + "".join(f", abs(v{k})" for k in range(len(forms))) + ")"
        lines += [f"        e = {largest} / norm", "        if e > worst:", "            worst = e"]
    lines += [f"        a{j} = p{j} / p0" for j in range(1, dim)]
    rows = ("0" + "".join(f" + {r}*a{j}" for j, r in enumerate(row, 1)) for row in entries)
    lines += [f"        append(({', '.join(rows)}))", "    return out, worst"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _kernel(surface: str):
    """The compiled check-and-project loop of a surface, built on its first sample.

    ``kernel(pts, proj)`` returns (projected points, max residual).  Its
    residual is that of ``residual`` on ``sparse_forms`` and its points the
    left folds ``0 + r*a1 + ...`` of each projection row, bit for bit; the
    coefficients are bound by name and the projection is an argument, so
    one kernel serves every projection.
    """
    dense = surface_quadrics(surface)
    forms = _distinct_forms(sparse_forms(dense))
    namespace = {f"c{k}_{t}": a for k, terms in enumerate(forms) for t, (_, _, a) in enumerate(terms)}
    source = _kernel_source(forms, len(dense[0]))
    exec(compile(source, f"<sample kernel {surface}>", "exec"), namespace)  # noqa: S102 - names only
    return namespace["kernel"]


def _grid(surface: str, resolution: int, projection):
    """The grid points of a surface, its skipped nodes and the projection checked against them."""
    if surface not in SURFACES:
        raise ValueError(f"unknown surface {surface!r}")
    pts, skipped = surface_points(surface, resolution)
    dim = len(pts[0])
    proj = default_projection(dim) if projection is None else projection
    if len(proj) != 3 or any(len(row) != dim - 1 for row in proj):
        raise ValueError(f"projection must be 3 rows of {dim - 1} entries")
    return pts, skipped, proj


def sample(surface: str, resolution: int, projection=None) -> PointCloud:
    """Sample, verify residuals, and project a surface to 3-space."""
    pts, skipped, proj = _grid(surface, resolution, projection)
    out, worst = _kernel(surface)(pts, proj)
    return PointCloud(out, skipped, worst)


# the line of one point in each output format
_LINES = {"csv": b"%.12g,%.12g,%.12g\n", "ply": b"%.12g %.12g %.12g\n"}


def _header(fmt: str, count: int) -> bytes:
    if fmt == "csv":
        return b"x,y,z\n"
    return (
        b"ply\nformat ascii 1.0\nelement vertex %d\n" % count
        + b"property float x\nproperty float y\nproperty float z\nend_header\n"
    )


def _write(cloud: PointCloud, path: str, fmt: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_header(fmt, len(cloud.points)))
        fh.writelines(map(_LINES[fmt].__mod__, cloud.points))


def write_csv(cloud: PointCloud, path: str) -> None:
    _write(cloud, path, "csv")


def write_ply(cloud: PointCloud, path: str) -> None:
    _write(cloud, path, "ply")


class ResidualError(ArithmeticError):
    """A sampled point lies off its surface's quadrics by RESIDUAL_LIMIT or more."""


def export(surface: str, resolution: int, projection, path: str, fmt: str) -> tuple[int, int, float]:
    """Sample a surface and write its cloud to ``path`` as "csv" or "ply".

    Returns (points written, degenerate nodes skipped, max residual).  The
    file holds the bytes that ``sample`` and ``write_csv``/``write_ply``
    give.  The grid is cut into contiguous chunks of at least ``MIN_CHUNK``
    points, at most one per usable CPU (``workers.worker_count``).  The
    chunks are the tasks of ``workers.run_tasks``: forked workers and this
    process each check, project and format the next chunk into its max
    residual and its bytes.  This process then writes the header and each
    chunk's bytes in order, so the file does not depend on the split, and
    computes again any chunk whose worker died or sent it cut short.  A
    grid that is empty or a misshapen projection raises before the file is
    opened.  Once it is opened, any exception removes the file (a regular
    file only, never a device or a link) before it propagates; a max
    residual that is not below ``RESIDUAL_LIMIT`` raises ``ResidualError``.
    """
    pts, skipped, proj = _grid(surface, resolution, projection)
    kernel, line = _kernel(surface), _LINES[fmt]
    fh = open(path, "wb")
    try:
        with fh:
            worst = _write_chunks(fh, _header(fmt, len(pts)), kernel, pts, proj, line)
        if not worst < RESIDUAL_LIMIT:
            raise ResidualError(
                f"max quadric residual {worst:.3e} of {surface} is not below {RESIDUAL_LIMIT:.0e}"
            )
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):  # never a device or a link
            os.remove(path)
        raise
    return len(pts), skipped, worst


def _write_chunks(fh, header: bytes, kernel, pts, proj, line: bytes) -> float:
    """Write the header and every chunk's lines, formatted here and in forked workers."""
    chunks = 1 + worker_count(len(pts) // MIN_CHUNK)
    cuts = [len(pts) * c // chunks for c in range(chunks + 1)]

    def run(c: int) -> tuple[float, bytes]:
        out, worst = kernel(islice(pts, cuts[c], cuts[c + 1]), proj)
        data = io.BytesIO()
        data.writelines(map(line.__mod__, out))
        return worst, data.getvalue()

    done, _ = run_tasks(run, chunks)
    fh.write(header)
    worst = 0.0
    for c in range(chunks):
        found, data = done[c] if c in done else run(c)
        fh.write(data)
        if found > worst:
            worst = found
    return worst


def load_projection(path: str) -> list[list[float]]:
    rows = []
    with open(path) as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(tok) for tok in line.replace(",", " ").split()])
        except ValueError as exc:  # not UTF-8, or not numbers
            raise ValueError(f"{path}: {exc}") from None
    if len(rows) != 3:
        raise ValueError(f"{path}: projection file must contain exactly 3 rows")
    bad = next((x for row in rows for x in row if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"{path}: projection entries must be finite numbers, got {bad}")
    return rows
