"""Correctness gate: every result the benchmark times is checked here.

The checks use their own exact arithmetic over Q(i) (pairs of Fractions,
or Gaussian integers after clearing denominators), never the program's
`Matrix`, so a fault in the exact core cannot hide itself.  A wrong answer
raises `WrongAnswer`, which names the operation; the benchmark then exits
non-zero without printing a result.  Exceptions raised by the program are
not wrong answers: the caller counts them as failed operations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction
from itertools import islice

import streams

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
VERIFY_REFERENCE = os.path.join(REFERENCE_DIR, "verify_seed0.json")
RESULTS_REFERENCE = os.path.join(REFERENCE_DIR, "results.json")

RESIDUAL_LIMIT = 1e-9
WRONG_ANSWER_EXIT = 3  # exit code of the benchmark and its workers on a wrong answer
FAMILY_INDICES = (1, 3, 5, 7)


class WrongAnswer(Exception):
    """The program returned a wrong result for the named operation."""

    def __init__(self, op: str, why: str):
        super().__init__(f"wrong answer in {op}: {why}")
        self.op = op


def load_reference() -> dict:
    with open(RESULTS_REFERENCE) as fh:
        return json.load(fh)


# --- verify ----------------------------------------------------------------

def check_verify_output(stdout: bytes, seed: int, reference: dict) -> int:
    """Check one `verify --json` output; returns the number of passing checks."""
    op = f"verify --json --seed {seed}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        raise WrongAnswer(op, "output is not JSON") from None
    ids = [e.get("check_id") for e in payload.get("entries", [])]
    if ids != reference["verify_check_ids"]:
        raise WrongAnswer(op, f"check ids {ids} differ from the suite's")
    failing = [e["check_id"] for e in payload["entries"] if e.get("status") != "pass"]
    if failing or payload.get("summary") != {"pass": len(ids), "fail": 0}:
        raise WrongAnswer(op, f"failing checks {failing}")
    if seed == streams.DEFAULT_SEED:
        with open(VERIFY_REFERENCE, "rb") as fh:
            if fh.read() != stdout:
                raise WrongAnswer(op, "output differs from the seed-commit reference bytes")
    return len(ids)


# --- exact arithmetic over Q(i) --------------------------------------------

def pairs(matrix) -> list[list[tuple[Fraction, Fraction]]]:
    """Entries of a program matrix as (re, im) Fraction pairs."""
    return [[(Fraction(a.re), Fraction(a.im)) for a in row] for row in matrix.entries()]


def gaussian_integers(rows) -> list[list[tuple[int, int]]]:
    """A positive multiple of a (re, im) pair matrix with integer entries."""
    den = 1
    for row in rows:
        for re_, im in row:
            den = math.lcm(den, re_.denominator, im.denominator)
    return [[(int(re_ * den), int(im * den)) for re_, im in row] for row in rows]


def _mul(x, y):
    """Product of two (re, im) pairs, of ints or of Fractions."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _pinv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def lie_action(d_rows, a_rows) -> list[list[tuple[int, int]]]:
    """D^T A + A D, of Gaussian-integer matrices."""
    n = len(a_rows)
    d_cols = [[(k, d_rows[k][j]) for k in range(n) if d_rows[k][j] != (0, 0)] for j in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re_ = im = 0
            for k, d in d_cols[i]:  # (D^T A)_ij = sum_k D_ki A_kj
                p = _mul(d, a_rows[k][j])
                re_ += p[0]
                im += p[1]
            for k, d in d_cols[j]:  # (A D)_ij = sum_k A_ik D_kj
                p = _mul(a_rows[i][k], d)
                re_ += p[0]
                im += p[1]
            row.append((re_, im))
        out.append(row)
    return out


def is_invariant(d_rows, a_rows) -> bool:
    """True iff D^T A + A D = 0 (both as Gaussian-integer matrices)."""
    return all(x == (0, 0) for row in lie_action(d_rows, a_rows) for x in row)


def upper_vector(rows) -> list:
    n = len(rows)
    return [rows[i][j] for i in range(n) for j in range(i, n)]


def symmetric(vector, n: int) -> list[list]:
    """The symmetric n x n matrix whose upper triangle, row by row, is `vector`."""
    rows = [[None] * n for _ in range(n)]
    entries = iter(vector)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(entries)
    return rows


def rref(vectors) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of (re, im) pair vectors, and pivot columns."""
    m = [list(v) for v in vectors]
    zero = (Fraction(0), Fraction(0))
    pivots = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != zero), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = _pinv(m[r][c])
        m[r] = [_mul(inv, x) if x != zero else zero for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != zero:
                m[i] = [
                    (a[0] - g[0], a[1] - g[1]) if b != zero else a
                    for a, b in zip(m[i], m[r])
                    for g in (_mul(f, b),)
                ]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def gaussian_rank(rows) -> int:
    """Rank over Q(i) of a Gaussian-integer matrix, by fraction-free elimination."""
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i, row in enumerate(rows) if row[c] != (0, 0)), None)
        if p is None:
            continue
        pivot = rows.pop(p)
        a = pivot[c]
        rank += 1
        reduced = []
        for row in rows:
            f = row[c]
            if f != (0, 0):  # a * row - f * pivot, then divided by the integer content
                row = [(u[0] - v[0], u[1] - v[1])
                       for x, y in zip(row, pivot) for u, v in ((_mul(a, x), _mul(f, y)),)]
                g = math.gcd(*(part for x in row for part in x))
                if g == 0:
                    continue
                if g > 1:
                    row = [(x[0] // g, x[1] // g) for x in row]
            reduced.append(row)
        rows = reduced
    return rank


class AmbientSpan:
    """The span of a list of symmetric forms: membership and invariant subspaces."""

    def __init__(self, basis_rows):
        self.rows, self.pivots = rref([upper_vector(rows) for rows in basis_rows])
        n = len(basis_rows[0])
        # an independent basis of the span, as Gaussian-integer matrices
        self.forms = [gaussian_integers(symmetric(row, n)) for row in self.rows]

    def invariant_dimension(self, d_int) -> int:
        """Dimension of {A in the span : D^T A + A D = 0 for every D in d_int}."""
        images = [[x for d in d_int for x in upper_vector(lie_action(d, a))] for a in self.forms]
        return len(self.forms) - gaussian_rank(images)

    def contains(self, rows) -> bool:
        zero = (Fraction(0), Fraction(0))
        v = upper_vector(rows)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f != zero:
                v = [(a[0] - g[0], a[1] - g[1]) for a, b in zip(v, row) for g in (_mul(f, b),)]
        return all(x == zero for x in v)


# --- query -----------------------------------------------------------------

def expected_family_name(coeffs) -> str | None:
    """Classification row name by the support-pattern rule; None if invalid."""
    signs = {c > 0 for c in coeffs if c}
    vanishing = {i for c, i in zip(coeffs, FAMILY_INDICES) if not c}
    if len(signs) != 1 or len(vanishing) > 2:
        return None
    if not vanishing:
        return "double Segre surface"
    if vanishing in ({1}, {3}):
        return "projected dS"
    if vanishing in ({5}, {7}):
        return "dP6"
    return "ring cyclide"


def check_family(coeffs, record_json, raised: Exception | None, reference: dict) -> str | None:
    """Check one classify_family outcome; returns its canonical text.

    Raises WrongAnswer for a wrong row or for accepting an invalid vector.
    Returns None when the program raised on a valid vector (a failure).
    """
    op = f"classify_family{tuple(str(c) for c in coeffs)}"
    name = expected_family_name(coeffs)
    if name is None:
        if isinstance(raised, ValueError):
            return "rejected"
        if raised is None:
            raise WrongAnswer(op, "an invalid vector was accepted")
        return None
    if raised is not None:
        return None
    if record_json != reference["family_records"][name]:
        raise WrongAnswer(op, f"got {record_json}, the support pattern gives {name!r}")
    return json.dumps(record_json, sort_keys=True)


def check_invariant(elements_label: str, basis_rows, tangents, ambient: AmbientSpan) -> str:
    """Check invariant forms: independent, invariant, inside the ambient span,
    and as many as the dimension of the ambient span's invariant subspace."""
    op = f"invariant_forms({elements_label})"
    red, pivots = rref([upper_vector(rows) for rows in basis_rows]) if basis_rows else ([], [])
    if len(pivots) != len(basis_rows):
        raise WrongAnswer(op, "the returned forms are linearly dependent")
    d_int = [gaussian_integers(d) for d in tangents]
    for k, rows in enumerate(basis_rows):
        a_int = gaussian_integers(rows)
        if not all(is_invariant(d, a_int) for d in d_int):
            raise WrongAnswer(op, f"form {k} violates D^T A + A D = 0")
        if not ambient.contains(rows):
            raise WrongAnswer(op, f"form {k} is not in the span of i2_segre()")
    dim = ambient.invariant_dimension(d_int)
    if len(basis_rows) != dim:
        raise WrongAnswer(op, f"{len(basis_rows)} forms returned, the invariant forms span {dim}")
    return json.dumps([[f"{re_},{im}" for re_, im in row] for row in red])


# --- sample ----------------------------------------------------------------

_WROTE = re.compile(
    r"wrote (\d+) points to .* \((\d+) degenerate samples skipped, max quadric residual (\S+)\)"
)


def residual_function(forms):
    """Compiled max |p^T A p| / |p|^2 over float forms, from their nonzeros."""
    n = len(forms[0])
    terms = []
    for a in forms:
        parts = []
        for i in range(n):
            for j in range(i, n):
                c = a[i][j] if i == j else a[i][j] + a[j][i]
                if c:
                    parts.append(f"{c!r}*p[{i}]*p[{j}]")
        terms.append("abs(" + ("+".join(parts) or "0.0") + ")")
    norm = "+".join(f"p[{i}]*p[{i}]" for i in range(n))
    src = f"lambda p: max({', '.join(terms)}, 0.0) / ({norm})"
    return eval(src)  # noqa: S307 - source built above from floats and indices


def check_sample(job, message: str, lines, points, forms_residual, default_proj) -> int:
    """Check one `sample` output file, given as an iterable of its text lines,
    against the sampled grid; returns the number of points."""
    op = job.label()
    m = _WROTE.search(message)
    if m is None:
        raise WrongAnswer(op, f"unexpected report {message!r}")
    n, skipped, reported = int(m.group(1)), int(m.group(2)), float(m.group(3))
    if n != job.resolution ** 2 - skipped:
        raise WrongAnswer(op, f"{n} points + {skipped} skipped != resolution^2")
    if len(points) != n:
        raise WrongAnswer(op, f"reported {n} points, the grid gives {len(points)}")
    worst = max((forms_residual(p) for p in points), default=0.0)
    if not worst < RESIDUAL_LIMIT or not reported < RESIDUAL_LIMIT:
        raise WrongAnswer(op, f"quadric residual {max(worst, reported):.3e} >= {RESIDUAL_LIMIT}")
    lines = (line.rstrip("\n") for line in lines)  # read one at a time, never held
    if job.fmt == "csv":
        header, sep = list(islice(lines, 1)), ","
        if header != ["x,y,z"]:
            raise WrongAnswer(op, "bad CSV header")
    else:
        header, sep = list(islice(lines, 7)), " "
        if header[:3] != ["ply", "format ascii 1.0", f"element vertex {n}"] or header[6:] != ["end_header"]:
            raise WrongAnswer(op, "bad PLY header")
    proj = job.projection or default_proj
    rows = 0
    for p, line in zip(points, lines):
        affine = [x / p[0] for x in p[1:]]
        want = [sum(r * x for r, x in zip(row, affine)) for row in proj]
        got = [float(tok) for tok in line.split(sep)]
        if len(got) != 3 or any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
            raise WrongAnswer(op, f"written point {got} is not the projection {want}")
        rows += 1
    rows += sum(1 for _ in lines)
    if rows != n:
        raise WrongAnswer(op, f"file holds {rows} points, expected {n}")
    return n


def default_projection(coords: int):
    return [[1.0 if j == k else 0.0 for j in range(coords - 1)] for k in range(3)]


class Digest:
    """Running SHA-256 over canonical result lines."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, text: str | bytes) -> None:
        self._h.update(text if isinstance(text, bytes) else text.encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def check_digest(op: str, digest: Digest, reference: dict, key: str) -> None:
    if digest.hexdigest() != reference["digests"][key]:
        raise WrongAnswer(op, "results differ from the seed-commit digest")
