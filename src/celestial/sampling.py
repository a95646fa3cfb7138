"""Floating-point point-cloud export for the classified surfaces.

This is the one deliberately non-exact corner of the package: real points
of the model surfaces are sampled over an angular grid, checked against
the exact quadrics of the surface to a tight residual, and written out as
CSV or PLY clouds after an optional linear projection to 3-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .segre import mu_transform, toric_projection
from . import geometry

_TAN_CUTOFF = 1e8


def _dp6_point(a: float, b: float):
    return (
        2.0, math.cos(a), math.sin(a), math.cos(b), math.sin(b),
        math.cos(a - b), -math.sin(a - b),
    )


def _ring_point(a: float, b: float):
    return (2.0, math.cos(a), math.sin(a), math.cos(b), math.sin(b))


def _spindle_point(a: float, b: float):
    u = math.tan(b / 2.0)
    if u == 0.0 or not math.isfinite(u) or abs(u) > _TAN_CUTOFF:
        return None
    h = 1.0 / math.sqrt(2.0)
    return (
        h * (u + 1.0 / u), math.cos(a), math.sin(a), h * (1.0 / u - u), 1.0,
    )


def _horn_point(a: float, b: float):
    u = math.tan(b / 2.0)
    if u == 0.0 or not math.isfinite(u) or abs(u) > _TAN_CUTOFF:
        return None
    return (
        -u - 1.0 / u, u, math.sqrt(2.0), math.sin(a) / u, math.cos(a) / u,
    )


def _veronese_point(a: float, b: float):
    s = math.tan(a / 2.0)
    t = math.tan(b / 2.0)
    if abs(s) > _TAN_CUTOFF or abs(t) > _TAN_CUTOFF:
        return None
    return (1.0, s * t, s, t, s * s, t * t)


@lru_cache(maxsize=None)
def _toric_forms(removed: frozenset[int]):
    """The quadrics of a toric projection, moved to the x frame of sigma_2."""
    span = toric_projection(removed)
    return tuple(mu_transform(2, q, span.coords) for q in span.basis)


# each surface: its float parametrization and its exact defining quadrics
_SURFACES = {
    "dp6": (_dp6_point, lambda: _toric_forms(frozenset({5, 6}))),
    "ring": (_ring_point, lambda: _toric_forms(frozenset({1, 2, 5, 6}))),
    "spindle": (_spindle_point, lambda: geometry.cyclide_pipeline()[0].basis),
    "horn": (_horn_point, lambda: geometry.cyclide_pipeline()[1].basis),
    "veronese": (_veronese_point, lambda: geometry.veronese_data().basis),
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
    param = _SURFACES[surface][0]
    pts = []
    skipped = 0
    for i in range(resolution):
        a = 2.0 * math.pi * i / resolution
        for j in range(resolution):
            b = 2.0 * math.pi * j / resolution
            p = param(a, b)
            if p is None:
                skipped += 1
            else:
                pts.append(p)
    return pts, skipped


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


@dataclass
class PointCloud:
    """Projected 3-space samples of one surface."""

    points: list[tuple[float, float, float]]
    skipped: int
    max_residual: float


def default_projection(ambient_dim: int) -> list[list[float]]:
    """Orthographic projection onto the first three affine coordinates."""
    return [[1.0 if j == k else 0.0 for j in range(ambient_dim - 1)] for k in range(3)]


def _kernel_source(forms, dim: int) -> str:
    """The straight-line source of one surface's check-and-project loop.

    Point coordinates are locals p0..p{dim-1}, the coefficient of term t of
    form k is the name c{k}_{t}, and projection entry (k, j) is r{k}_{j}; the
    source holds names and integer indices only, never a float.
    """
    coords = [f"p{i}" for i in range(dim)]
    entries = [[f"r{k}_{j}" for j in range(1, dim)] for k in range(3)]
    lines = [
        "def kernel(pts, proj):",
        "    " + ", ".join(f"({', '.join(row)},)" for row in entries) + " = proj",
        "    worst = 0.0",
        "    out = []",
        "    append = out.append",
        f"    for {', '.join(coords)} in pts:",
        "        norm = 0" + "".join(f" + {x}*{x}" for x in coords),
    ]
    for k, terms in enumerate(forms):
        val = "0.0" + "".join(f" + c{k}_{t}*p{i}*p{j}" for t, (i, j, _) in enumerate(terms))
        lines += [f"        e = abs({val}) / norm", "        if e > worst:", "            worst = e"]
    lines += [f"        a{j} = p{j} / p0" for j in range(1, dim)]
    rows = ("0" + "".join(f" + {r}*a{j}" for j, r in enumerate(row, 1)) for row in entries)
    lines += [f"        append(({', '.join(rows)}))", "    return out, worst"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _kernel(surface: str):
    """The compiled check-and-project loop of a surface, built on its first sample.

    ``kernel(pts, proj)`` returns (projected points, max residual).  It does
    the float operations of ``residual`` on ``sparse_forms`` and of the left
    fold ``0 + r*a1 + ...`` of each projection row, in the same order, so
    its results are those of the per-point reference bit for bit; the
    coefficients are bound by name and the projection is an argument, so
    one kernel serves every projection.
    """
    dense = surface_quadrics(surface)
    forms = sparse_forms(dense)
    namespace = {f"c{k}_{t}": a for k, terms in enumerate(forms) for t, (_, _, a) in enumerate(terms)}
    source = _kernel_source(forms, len(dense[0]))
    exec(compile(source, f"<sample kernel {surface}>", "exec"), namespace)  # noqa: S102 - names only
    return namespace["kernel"]


def sample(surface: str, resolution: int, projection=None) -> PointCloud:
    """Sample, verify residuals, and project a surface to 3-space."""
    if surface not in SURFACES:
        raise ValueError(f"unknown surface {surface!r}")
    pts, skipped = surface_points(surface, resolution)
    dim = len(pts[0])
    proj = default_projection(dim) if projection is None else projection
    if len(proj) != 3 or any(len(row) != dim - 1 for row in proj):
        raise ValueError(f"projection must be 3 rows of {dim - 1} entries")
    out, worst = _kernel(surface)(pts, proj)
    return PointCloud(out, skipped, worst)


def write_csv(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("x,y,z\n")
        fh.writelines(map("%.12g,%.12g,%.12g\n".__mod__, cloud.points))


def write_ply(cloud: PointCloud, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud.points)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        fh.writelines(map("%.12g %.12g %.12g\n".__mod__, cloud.points))


def load_projection(path: str) -> list[list[float]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.replace(",", " ").split()])
    if len(rows) != 3:
        raise ValueError("projection file must contain exactly 3 rows")
    bad = next((x for row in rows for x in row if not math.isfinite(x)), None)
    if bad is not None:
        raise ValueError(f"projection entries must be finite numbers, got {bad}")
    return rows
