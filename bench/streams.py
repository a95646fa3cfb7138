"""Seeded inputs of the three workloads.

Inputs are plain Python data (Fractions, tuples, floats) generated from the
benchmark seed alone; the worker turns them into program objects.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# ambient coordinates of each sample surface; a --proj matrix has 3 rows of
# (coordinates - 1) entries
SURFACE_COORDS = {"dp6": 7, "ring": 5, "spindle": 5, "horn": 5, "veronese": 6}
SMALL_RESOLUTIONS = (2, 3, 4)  # 2 is the smallest resolution `sample` accepts
LARGE_RESOLUTIONS = (100, 140)
GATE_LARGE_RESOLUTIONS = (20, 28)

# family vector kinds and their weights: the four support classes of
# `classify_family`, then the two kinds it must reject with ValueError
FAMILY_KINDS = (
    ("full", 2), ("zero13", 1), ("zero57", 1), ("two_zeros", 1),
    ("mixed_sign", 0.5), ("three_zeros", 0.5),
)
QUERY_BLOCK = ("family", "family", "family", "invariant")  # mix of one block


def verify_seeds(seed: int):
    """Suite seeds of the fresh-process `verify` runs: the default seed first."""
    rng = random.Random(f"verify:{seed}")
    yield DEFAULT_SEED
    while True:
        yield rng.randrange(1, 10**6)


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 5))


def family_vector(rng: random.Random) -> tuple[str, tuple[Fraction, ...]]:
    kinds, weights = zip(*FAMILY_KINDS)
    kind = rng.choices(kinds, weights)[0]
    c = [_coeff(rng) for _ in range(4)]
    if kind == "zero13":
        c[rng.choice((0, 1))] = Fraction(0)
    elif kind == "zero57":
        c[rng.choice((2, 3))] = Fraction(0)
    elif kind == "two_zeros":
        for i in rng.sample(range(4), 2):
            c[i] = Fraction(0)
    elif kind == "three_zeros":
        for i in rng.sample(range(4), 3):
            c[i] = Fraction(0)
    if kind == "mixed_sign":
        neg = rng.sample(range(4), rng.randint(1, 3))
        c = [-x if i in neg else x for i, x in enumerate(c)]
    elif rng.random() < 0.25:
        c = [-x for x in c]  # a common negative sign is still a valid member
    return kind, tuple(c)


def _gauss(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return re, im


def _traceless(rng: random.Random):
    a, b, c = _gauss(rng), _gauss(rng), _gauss(rng)
    return ((a, b), (c, (-a[0], -a[1])))


def lie_elements(rng: random.Random):
    """1 to 3 nonzero elements of sl2+sl2 as (left, right) 2x2 entry tuples."""
    out = []
    for _ in range(rng.randint(1, 3)):
        while True:
            left, right = _traceless(rng), _traceless(rng)
            if any(x != (0, 0) for m in (left, right) for row in m for x in row):
                break
        out.append((left, right))
    return tuple(out)


def query_ops(seed: int):
    """Endless stream of ("family", kind, coeffs) and ("invariant", elements).

    Every block of four holds three family vectors and one invariant-form
    problem, in seeded order, so the mix is the same in every run.
    """
    rng = random.Random(f"query:{seed}")
    while True:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for op in block:
            if op == "family":
                yield ("family",) + family_vector(rng)
            else:
                yield ("invariant", lie_elements(rng))


@dataclass(frozen=True)
class SampleJob:
    surface: str
    resolution: int
    fmt: str
    projection: tuple[tuple[float, ...], ...] | None

    def label(self) -> str:
        proj = " --proj" if self.projection else ""
        return f"sample --surface {self.surface} --resolution {self.resolution} --format {self.fmt}{proj}"


def _projection(rng: random.Random, surface: str):
    cols = SURFACE_COORDS[surface] - 1
    return tuple(tuple(round(rng.uniform(-1, 1), 3) for _ in range(cols)) for _ in range(3))


def sample_rounds(seed: int, large=LARGE_RESOLUTIONS):
    """Endless stream of rounds of `sample` jobs.

    A round holds every surface in CSV and in PLY at a large seeded
    resolution, half of them with a seeded projection, and every surface at
    each small resolution down to 2, in seeded order.
    """
    rng = random.Random(f"sample:{seed}")
    while True:
        jobs = []
        for surface in SURFACE_COORDS:
            for fmt in ("csv", "ply"):
                proj = _projection(rng, surface) if rng.random() < 0.5 else None
                jobs.append(SampleJob(surface, rng.randint(*large), fmt, proj))
            for res in SMALL_RESOLUTIONS:
                proj = _projection(rng, surface) if rng.random() < 0.3 else None
                jobs.append(SampleJob(surface, res, rng.choice(("csv", "ply")), proj))
        rng.shuffle(jobs)
        yield jobs


def gate_query_ops(n: int = 16):
    """The fixed default-seed query ops whose results are digested."""
    ops = query_ops(DEFAULT_SEED)
    return [next(ops) for _ in range(n)]


def gate_sample_jobs():
    """The default-seed first round at small large-resolutions, digested."""
    return next(sample_rounds(DEFAULT_SEED, GATE_LARGE_RESOLUTIONS))
