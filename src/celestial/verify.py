"""The full verification suite: every classification claim, recomputed.

Each check recomputes one family of published values from scratch through
the exact machinery and compares against the frozen expected data.  That
data lives here and nowhere else: the expected spans, the lattice rows
(``LATTICE_TABLE``) and the eight celestial records keyed by surface name
(``RECORD_TABLE``); the computing modules read none of it.  The checks are
deterministic for a fixed seed; randomized property checks derive all
randomness from that seed.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from functools import cached_property

from .exact import GaussianRational, Matrix, Record, Signature, ZERO, gauss, signature
from .segre import (
    FormSpan,
    MonomialParam,
    QuadraticForm,
    SEGRE_PARAM,
    apply_sigma,
    form_from_pairs,
    i2_dimension,
    i2_segre,
    mu_transform,
    rep_S,
    toric_projection,
    toric_quadrics,
    torus_sigma,
)
from . import forms, geometry, lattice, liealg, sampling
from .forms import INFINITY, CelestialRecord, random_fraction, random_sl2
from .lattice import SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3
from .workers import run_tasks


def _span(term_lists, dim) -> FormSpan:
    return FormSpan(tuple(form_from_pairs(terms, dim) for terms in term_lists))


def expected_rotation_invariants_y() -> FormSpan:
    return _span(
        [
            [((0, 0), 1), ((1, 2), -1)],
            [((0, 0), 1), ((3, 4), -1)],
            [((0, 0), 1), ((5, 6), -1)],
            [((0, 0), 1), ((7, 8), -1)],
        ],
        9,
    )


def expected_rotation_invariants_x2() -> FormSpan:
    quarter = Fraction(1, 4)
    return _span(
        [
            [((0, 0), quarter), ((i, i), -1), ((i + 1, i + 1), -1)]
            for i in (1, 3, 5, 7)
        ],
        9,
    )


def expected_spindle_invariants_x1() -> FormSpan:
    return _span(
        [
            [((0, 0), 1), ((1, 1), -1), ((2, 2), -1)],
            [((0, 0), 1), ((3, 4), -1)],
            [((5, 6), 1), ((7, 8), -1)],
            [((0, 0), 1), ((5, 7), -1), ((6, 8), -1)],
        ],
        9,
    )


def expected_horn_invariants_y() -> FormSpan:
    return _span(
        [
            [((0, 0), 1), ((3, 4), -1)],
            [((4, 4), 1), ((6, 7), -1)],
            [((1, 6), 1), ((2, 7), -1)],
            [((1, 2), 2), ((5, 6), -1), ((7, 8), -1)],
        ],
        9,
    )


def expected_horn_invariants_x1() -> FormSpan:
    return _span(
        [
            [((0, 0), 1), ((3, 4), -1)],
            [((4, 4), 1), ((6, 6), -1), ((7, 7), -1)],
            [((1, 6), 1), ((2, 7), -1)],
            [((1, 1), 1), ((2, 2), 1), ((5, 7), -1), ((6, 8), -1)],
        ],
        9,
    )


def expected_full_invariant_y() -> QuadraticForm:
    """The sl2+sl2-invariant form; under sigma_0 (mu_0 = identity) also its x-frame shape."""
    return form_from_pairs(
        [((0, 0), 2), ((1, 2), -2), ((3, 4), -2), ((5, 6), 1), ((7, 8), 1)], 9
    )


def expected_full_invariant_x3() -> QuadraticForm:
    return form_from_pairs(
        [((0, 0), 2), ((2, 3), -4), ((1, 4), -4), ((5, 6), 1), ((7, 7), 1), ((8, 8), 1)],
        9,
    )


def expected_rotation_invariant_veronese() -> QuadraticForm:
    return form_from_pairs(
        [((1, 1), 1), ((2, 2), 1), ((3, 3), 1), ((0, 4), -1), ((0, 5), -1), ((4, 5), -1)],
        6,
    )


def expected_spindle_pencil() -> FormSpan:
    # coordinates (x0, x1, x2, x3, x4)
    return _span(
        [
            [((1, 1), 1), ((2, 2), 1), ((4, 4), -1)],
            [((0, 0), 1), ((3, 3), -1), ((4, 4), -2)],
        ],
        5,
    )


def expected_horn_pencil() -> FormSpan:
    # coordinates (x0, x3, x4, x6, x7), in local positions 0..4
    return _span(
        [
            [((2, 2), 1), ((0, 1), 2), ((1, 1), 2)],
            [((0, 0), 1), ((0, 1), 2), ((1, 1), 1), ((3, 3), -1), ((4, 4), -1)],
        ],
        5,
    )


class LatticeRow(Record):
    """One row of the paper's lattice table, as printed.

    ``counts`` is (interior, boundary, degree); ``merges_with`` names the
    row of the same surface, if any.
    """

    _fields = ("ref", "name", "vertices", "involution", "counts", "directions", "i2_dimension",
               "merges_with")

    def __init__(self, ref: str, name: str, vertices: tuple[lattice.Point, ...],
                 involution: lattice.UnimodularInvolution, counts: tuple[int, int, int],
                 directions: tuple[lattice.Point, ...], i2_dimension: int, merges_with: str | None):
        object.__setattr__(self, "ref", ref)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "involution", involution)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "i2_dimension", i2_dimension)
        object.__setattr__(self, "merges_with", merges_with)

    @cached_property
    def lattice_type(self) -> lattice.LatticeType:
        """The printed polygon and involution, with their computed circle directions."""
        return lattice.LatticeType.of(lattice.LatticePolygon(self.vertices), self.involution)

    def computed_counts(self) -> tuple[int, int, int]:
        """(interior, boundary, degree) computed from the printed polygon."""
        poly = self.lattice_type.polygon
        return (*lattice.lattice_counts(poly), lattice.degree(poly))


_SQUARE = ((-1, -1), (1, -1), (1, 1), (-1, 1))
_DIAMOND = ((-1, 0), (0, -1), (1, 0), (0, 1))

# the ten raw lattice classes; a' and a'' carry involutions conjugate to the
# trivial one through automorphisms of the surface, so they name surface a
LATTICE_TABLE: tuple[LatticeRow, ...] = tuple(LatticeRow(*row) for row in (
    # ref, name, polygon vertices, involution, (i, b, d), circle directions, dim I2, merges_with
    ("a", "dS", _SQUARE, SIGMA_0, (1, 8, 8), ((1, 0), (0, 1)), 20, None),
    ("b", "dP6", ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)), SIGMA_2, (1, 6, 6),
     ((1, 0), (0, 1), (1, -1)), 9, None),
    ("c", "weak dP6", ((-1, -1), (1, -1), (1, 0), (0, 1), (-1, 0)), SIGMA_1, (1, 6, 6),
     ((1, 0), (0, 1)), 9, None),
    ("d", "Veronese surface", ((-1, -1), (1, -1), (-1, 1)), SIGMA_0, (0, 6, 4),
     ((1, 0), (0, 1), (1, -1)), 6, None),
    ("e", "ring cyclide", _DIAMOND, SIGMA_2, (1, 4, 4), ((1, 0), (0, 1), (1, 1), (1, -1)), 2, None),
    ("f", "spindle cyclide", _DIAMOND, SIGMA_1, (1, 4, 4), ((1, 0), (0, 1)), 2, None),
    ("g", "horn cyclide", ((-1, -1), (1, -1), (0, 1)), SIGMA_1, (1, 4, 4), ((1, 0), (0, 1)), 2, None),
    ("h", "2-sphere", ((-1, -1), (0, -1), (0, 0), (-1, 0)), SIGMA_3, (0, 4, 2),
     ((1, 1), (1, -1)), 1, None),
    ("a'", "dS", _SQUARE, SIGMA_1, (1, 8, 8), ((1, 0), (0, 1)), 20, "a"),
    ("a''", "dS", _SQUARE, SIGMA_2, (1, 8, 8), ((1, 0), (0, 1)), 20, "a"),
))

# singular loci of the blowup configurations a-f (geometry.BLOWUP_CONFIGS)
EXPECTED_SINGULAR_STRINGS = {
    "a": "",
    "b": "",
    "c": "rA1",
    "d": "A1+A1+A1+A1",
    "e": "rA1+rA1+A1+A1",
    "f": "rA3+A1+A1",
}


# the eight classification rows, keyed by surface name; singular loci use the
# strings of geometry.dynkin ("rA1" = real node, "A3" = complex tacnode, ...)
RECORD_TABLE: dict[str, CelestialRecord] = {rec.name: rec for rec in (
    CelestialRecord(2, 8, 7, "", "PSO(2)xPSO(2)", 3, False, "double Segre surface"),
    CelestialRecord(2, 8, 5, "", "PSO(2)xPSO(2)", 2, False, "projected dS"),
    CelestialRecord(3, 6, 5, "", "PSO(2)xPSO(2)", 2, True, "dP6"),
    CelestialRecord(INFINITY, 4, 4, "", "PSO(3)", 0, False, "Veronese surface"),
    CelestialRecord(4, 4, 3, "A1+A1+A1+A1", "PSO(2)xPSO(2)", 1, True, "ring cyclide"),
    CelestialRecord(2, 4, 3, "rA1+rA1+A1+A1", "PSO(2)xPSX(1)", 0, True, "spindle cyclide"),
    CelestialRecord(2, 4, 3, "rA3+A1+A1", "PSO(2)xPSE(1)", 0, True, "horn cyclide"),
    CelestialRecord(INFINITY, 2, 2, "", "PSO(3,1)", 0, True, "2-sphere"),
)}


def fixed_records() -> list[CelestialRecord]:
    """The classification rows that no family member reaches, in table order."""
    family = {name for _, name in _FAMILY_CASES}
    return [rec for name, rec in RECORD_TABLE.items() if name not in family]


def _check_model_symmetries(symmetric: FormSpan, model: str, drop) -> None:
    """Raise unless the quadrics of a standard model lie in the span of its invariant forms.

    The spindle and horn rows name the symmetry algebras of their models,
    so the quadrics cutting each model must be invariant under its algebra.
    """
    span = toric_projection(drop)
    if not all(symmetric.contains(_embed(q, span.coords)) for q in span.basis):
        raise RuntimeError(f"{model} quadrics are not symmetry-invariant")


def _embed(q: QuadraticForm, coords) -> QuadraticForm:
    """Lift a form on a coordinate subset back to the full 9x9 frame."""
    m = [[ZERO] * 9 for _ in range(9)]
    for a, ca in enumerate(coords):
        for b, cb in enumerate(coords):
            m[ca][cb] = q.matrix[a, b]
    return QuadraticForm(Matrix(m))


def match_lattice_rows(orbits) -> tuple[list[LatticeRow], list[lattice.LatticeType]]:
    """Name computed lattice orbits by ``LATTICE_TABLE``.

    Returns the rows some orbit is unimodular equivalent to, in table
    order, and the orbits that match no row.
    """
    matched, unmatched = set(), []
    for lt in orbits:
        row = next(
            (r for r in LATTICE_TABLE if lattice.unimodular_equivalent(r.lattice_type, lt)), None
        )
        if row is None:
            unmatched.append(lt)
        else:
            matched.add(row.ref)
    return [r for r in LATTICE_TABLE if r.ref in matched], unmatched


def unmatched_orbit(lt: lattice.LatticeType) -> str:
    """The failure text for a computed orbit that no table row names."""
    return f"orbit {lt.polygon.vertices} {lt.involution.m} matches no table row"


def class_param(tag: str) -> MonomialParam:
    """The monomial parametrization by the lattice points of a lattice table row."""
    for row in LATTICE_TABLE:
        if row.ref == tag:
            return MonomialParam(row.lattice_type.polygon.lattice_points())
    raise ValueError(f"unknown lattice class {tag!r}")


class CheckResult(Record):
    """The outcome of one check; ``elapsed_s``, its wall time, is left out of ``==``."""

    _fields = ("check_id", "ref", "ok", "detail", "elapsed_s")

    def __init__(self, check_id: str, ref: str, ok: bool, detail: str, elapsed_s: float = 0.0):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "ref", ref)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed_s", elapsed_s)

    def _key(self) -> tuple:
        return (self.check_id, self.ref, self.ok, self.detail)

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


def _ideal_dimensions(seed: int):
    """Binomial basis length == the count n(n+1)/2 - |P + P| == the table, per class."""
    expected = {row.ref: row.i2_dimension for row in LATTICE_TABLE if row.merges_with is None}
    params = {tag: class_param(tag) for tag in expected}
    dims = {tag: i2_dimension(p) for tag, p in params.items()}
    counts = {tag: len(toric_quadrics(p)) for tag, p in params.items()}
    ok = counts == dims == expected
    detail = " ".join(f"{t}:{d}" for t, d in dims.items())
    off = [f"{t}:{n}" for t, n in counts.items() if n != expected[t]]
    if off:  # only on failure, so a passing detail keeps its bytes
        detail += "; binomials " + " ".join(off)
    return ok, detail


def _invariant_forms(seed: int):
    ambient = i2_segre()
    named = liealg.NAMED_ALGEBRAS
    results = []

    rotation_y = expected_rotation_invariants_y()
    rot = liealg.invariant_forms(named["so2xso2"], ambient)
    results.append(rot.equals(rotation_y))
    rot_x = FormSpan(tuple(mu_transform(2, q) for q in rot.basis))
    results.append(rot_x.equals(expected_rotation_invariants_x2()))

    sx = liealg.invariant_forms(named["so2xsx1"], ambient)
    _check_model_symmetries(sx, "spindle", geometry.SPINDLE_DROP)
    results.append(sx.equals(rotation_y))
    sx_x = FormSpan(tuple(mu_transform(1, q) for q in sx.basis))
    results.append(sx_x.equals(expected_spindle_invariants_x1()))

    se = liealg.invariant_forms(named["so2xse1"], ambient)
    _check_model_symmetries(se, "horn", geometry.HORN_DROP)
    results.append(se.equals(expected_horn_invariants_y()))
    se_x = FormSpan(tuple(mu_transform(1, q) for q in se.basis))
    results.append(se_x.equals(expected_horn_invariants_x1()))

    full = liealg.full_invariant_forms()
    results.append(len(full) == 1)
    results.append(full.equals(FormSpan((expected_full_invariant_y(),))))

    vero_rot = geometry.veronese_invariant_forms(geometry.so3_basis())
    results.append(len(vero_rot) == 1)
    results.append(vero_rot.equals(FormSpan((expected_rotation_invariant_veronese(),))))
    results.append(len(geometry.veronese_invariant_forms(geometry.SL3_BASIS.values())) == 0)

    ok = all(results)
    return ok, f"{sum(results)}/{len(results)} span identities"


# one member of every support pattern (two of the full one), with the
# record it must classify to
_FAMILY_CASES = [
    ((1, 1, 1, 1), "double Segre surface"),
    ((2, 1, 3, 5), "double Segre surface"),
    ((0, 1, 1, 1), "projected dS"),
    ((1, 0, 1, 1), "projected dS"),
    ((1, 1, 0, 1), "dP6"),
    ((1, 1, 1, 0), "dP6"),
    ((0, 1, 0, 1), "ring cyclide"),
    ((0, 1, 1, 0), "ring cyclide"),
    ((1, 0, 0, 1), "ring cyclide"),
    ((1, 0, 1, 0), "ring cyclide"),
    ((1, 1, 0, 0), "ring cyclide"),
    ((0, 0, 1, 1), "ring cyclide"),
]


def _family_rows(seed: int):
    # classify_family itself raises when rank(Q_c) - 2 disagrees with the row
    for coeffs, name in _FAMILY_CASES:
        rec = forms.classify_family(forms.FamilyCoeffs(*coeffs))
        if rec != RECORD_TABLE[name]:
            return False, f"{coeffs} gave {rec.to_json()}"
    return True, f"{len(_FAMILY_CASES)} support patterns"


def _hyperquadric_signatures(seed: int):
    q0, q3 = forms.corollary_forms()
    s0, s3 = signature(q0.matrix), signature(q3.matrix)
    shape_ok = (
        q0.matrix.scale(2 / q0.matrix[0, 0]) == expected_full_invariant_y().matrix
        and q3.matrix.scale(2 / q3.matrix[0, 0]) == expected_full_invariant_x3().matrix
    )
    ok = (s0, s3) == (Signature(4, 5, 0), Signature(3, 6, 0)) and shape_ok
    return ok, f"signatures {s0} and {s3}"


def _lattice_classes(seed: int):
    rows, unmatched = match_lattice_rows(lattice.classify_grid())
    if unmatched:
        return False, "; ".join(map(unmatched_orbit, unmatched))
    if len(rows) != len(LATTICE_TABLE):
        return False, f"{len(rows)} raw classes"
    for row in LATTICE_TABLE:
        if row.computed_counts() != row.counts:
            return False, f"class {row.ref} has wrong table data"
        if row.lattice_type.directions != set(row.directions):
            return False, f"class {row.ref} has directions {set(row.lattice_type.directions)}"
    hexagon = lattice.convex_hull([(-1, 1), (0, 1), (1, 0), (1, -1), (0, -1), (-1, 0)])
    if lattice.width(hexagon, (1, -1)) != 2 or lattice.width(hexagon, (1, 1)) != 4:
        return False, "hexagon widths are wrong"
    return True, "10 raw classes, 8 named; widths 2 and 4 reproduced"


def _cyclide_pipeline(seed: int):
    x_s, x_h = geometry.cyclide_pipeline()
    if not x_s.equals(expected_spindle_pencil()):
        return False, "spindle pencil mismatch"
    if not x_h.equals(expected_horn_pencil()):
        return False, "horn pencil mismatch"
    sphere_sigs = {
        signature(x_s.combination(geometry.sphere_member(x_s)).matrix),
        signature(x_h.combination(geometry.sphere_member(x_h)).matrix),
    }
    if sphere_sigs != {Signature(1, 4, 0)}:
        return False, f"sphere members have signatures {sphere_sigs}"
    report = geometry.stereographic_check()
    if not report:
        return False, "stereographic images are not a cone and a cylinder"
    detail = (
        f"cone constant {report.cone_constant}, cylinder radius^2 "
        f"{report.cylinder_radius_sq}, {report.samples} samples, "
        f"{report.skipped} degenerate samples skipped"
    )
    return True, detail


def _dynkin_strings(seed: int):
    rendered = {}
    for tag, cfg in geometry.BLOWUP_CONFIGS.items():
        rendered[tag] = geometry.dynkin(geometry.b_classes(cfg))
    ok = rendered == EXPECTED_SINGULAR_STRINGS
    detail = " ".join(f"{t}:[{s}]" for t, s in sorted(rendered.items()))
    return ok, detail


def _veronese_signatures(seed: int):
    """The signatures of every nonzero real quadric through the Veronese surface.

    Read the six coordinates as the symmetric 3x3 matrix Y over (s, t, u);
    the surface is where Y has rank 1, and for a symmetric A the form
    q_A(y) = tr(A adj Y) vanishes there.  ``veronese_signature_witnesses``
    certifies three exact facts:

    1. the q_A of a basis of the symmetric matrices span the Veronese
       quadrics, so A -> q_A maps the real A onto the real quadrics;
    2. for each gl3 matrix unit u, with D_u its action on the coordinates,
       D_u^T M(q_A) + M(q_A) D_u = M(q_B) for B = 2 tr(u) A - u A - A u^T;
    3. five diagonal representatives carry the five nonzero inertias of A up
       to sign, and their q_A the five signatures it returns.

    Fact 2 is the derivative of q_A(g Y g^T) = det(g)^2 q_{g^-1 A g^-T}(Y),
    from adj(g Y g^T) = det(g)^2 g^-T adj(Y) g^-1.  Both sides are linear
    actions of GL3(R) whose derivatives agree on a basis of gl3, so they
    agree on the connected group GL3+(R) that the exponentials generate, and
    on all of GL3(R), because -I acts trivially on Y and on A and turns the
    sign of det in odd dimension.  By Sylvester's law a nonzero real A is
    +-h R h^T for a representative R and an invertible h; then q_A composed
    with the invertible map Y -> h Y h^T is +-det(h)^2 q_R, so q_A has q_R's
    normalized signature.  The returned set is thus every signature that
    occurs, not a sample of them.  The rotation-invariant form, found by an
    independent solve, must have (1,5).
    """
    witnesses = geometry.veronese_signature_witnesses()
    required = {
        Signature(1, 2, 3), Signature(1, 3, 2), Signature(1, 5, 0),
        Signature(2, 2, 2), Signature(3, 3, 0),
    }
    missing = required - witnesses
    if missing:
        return False, f"missing witnesses {missing}"
    full_rank = {s for s in witnesses if s.rank == 6}
    if not full_rank <= {Signature(1, 5, 0), Signature(3, 3, 0)}:
        return False, f"unexpected full-rank signatures {full_rank}"
    so3_sig = signature(geometry.so3_invariant_form().matrix)
    if so3_sig != Signature(1, 5, 0):
        return False, f"rotation-invariant form has signature {so3_sig}"
    return True, f"{len(witnesses)} rank-stratified signatures, all five required present"


def _random_gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        random_fraction(rng),
        random_fraction(rng) if rng.random() < 0.5 else Fraction(0),
    )


def _random_lie(rng: random.Random) -> liealg.LieElement:
    out = liealg.E
    for base in liealg.FULL_BASIS:
        if rng.random() < 0.7:
            out = out + _random_gauss(rng) * base
    return out


def _random_congruence(rng: random.Random, n: int) -> Matrix:
    """A product of up to 2n random shears I + f E_ij, applied as column operations."""
    m = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = random_fraction(rng)
        for row in m:  # m * (I + f E_ij) adds f times column i to column j
            if row[i]:
                row[j] += f * row[i]
    return Matrix(m)


def _property_suite(seed: int):
    rng = random.Random(f"properties:{seed}")
    checks = []

    # the symmetric-square action is a group homomorphism
    for _ in range(20):
        phi = (random_sl2(rng), random_sl2(rng))
        psi = (random_sl2(rng), random_sl2(rng))
        lhs = rep_S(phi[0] * psi[0], phi[1] * psi[1])
        checks.append(lhs == rep_S(*phi) * rep_S(*psi))

    # its derivative is a Lie algebra homomorphism
    for _ in range(20):
        x, y = _random_lie(rng), _random_lie(rng)
        lhs = liealg.d_rep(liealg.bracket(x, y))
        dx, dy = liealg.d_rep(x), liealg.d_rep(y)
        checks.append(lhs == dx * dy - dy * dx)

    # invariant forms of a nilpotent generator survive its exact exponential
    ambient = i2_segre()
    d = liealg.d_rep(liealg.T1)
    d2 = d * d
    assert not any(map(any, (d2 * d).entries()))
    invariants = liealg.invariant_forms([liealg.T1], ambient)
    for alpha in (1, 2, Fraction(-3, 2), 5):
        e = Matrix.identity(9) + d.scale(alpha) + d2.scale(Fraction(alpha) ** 2 / 2)
        for q in invariants.basis:
            checks.append(e.transpose() * q.matrix * e == q.matrix)

    # signatures are congruence invariants
    for _ in range(20):
        n = rng.choice((3, 4, 5))
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = random_fraction(rng) if rng.random() < 0.8 else Fraction(0)
        a = Matrix(sym)
        p = _random_congruence(rng, n)
        checks.append(signature(p.transpose() * a * p) == signature(a))

    # lattice polygons satisfy the area-degree relation
    for poly in lattice.grid_polygons():
        checks.append(lattice.degree(poly) == poly.twice_area())

    # the real structures are involutions on points, forms, and Lie elements
    for i in range(4):
        pt = SEGRE_PARAM.eval(GaussianRational.parse("2+i"), GaussianRational.parse("3-2i"))
        checks.append(apply_sigma(i, apply_sigma(i, pt)) == pt)
        s, u = gauss("5-i"), gauss("2+3i")
        lifted = SEGRE_PARAM.eval(*torus_sigma(i, s, u))
        checks.append(apply_sigma(i, SEGRE_PARAM.eval(s, u)) == lifted)
        for q in ambient.basis[:5]:
            checks.append(apply_sigma(i, apply_sigma(i, q)) == q)
        for x in liealg.FULL_BASIS:
            checks.append(liealg.lie_sigma(i, liealg.lie_sigma(i, x)) == x)

    ok = all(checks)
    return ok, f"{sum(checks)}/{len(checks)} properties hold"


def _rigidity(seed: int):
    # exact: the Lie algebra of the stabilizer of the family span is the
    # diagonal torus; the trials below test finite group elements, which the
    # identity component does not cover.  The stabilizer basis is canonical
    # (the identity at its free columns), so the torus must come out as S1, S2
    stabilizer = liealg.span_stabilizer(forms.family_basis())
    if stabilizer != [liealg.S1, liealg.S2]:
        dim = len(stabilizer)
        return False, f"the family span has a {dim}-dimensional stabilizer, not the torus"
    ok = forms.rigidity_sample_check(forms.FamilyCoeffs(1, 1, 1, 1), trials=100, seed=seed)
    return ok, "100 trials left the family span; torus action fixed coefficients"


def _sample_residuals(seed: int):
    worst = {}
    for surface, resolution in (
        ("dp6", 40), ("ring", 12), ("spindle", 24), ("horn", 24), ("veronese", 24)
    ):
        cloud = sampling.sample(surface, resolution)
        worst[surface] = cloud.max_residual
    ok = all(r < sampling.RESIDUAL_LIMIT for r in worst.values())
    detail = " ".join(f"{s}:{r:.2e}" for s, r in sorted(worst.items()))
    return ok, detail


CHECKS = (
    ("lemma-i2", "ideal dimensions for the eight lattice classes", _ideal_dimensions),
    ("invariant-forms", "invariant quadratic form bases", _invariant_forms),
    ("family-classification", "celestial records over all support patterns", _family_rows),
    ("hyperquadric-signatures", "signatures of the two rigid hyperquadrics", _hyperquadric_signatures),
    ("lattice-classes", "grid enumeration and width data", _lattice_classes),
    ("cyclide-pipeline", "spindle and horn models and their projections", _cyclide_pipeline),
    ("dynkin-singularities", "singular loci of the blowup configurations", _dynkin_strings),
    ("veronese-signatures", "signature witnesses in the Veronese ideal", _veronese_signatures),
    ("property-suite", "randomized structural properties", _property_suite),
    ("rigidity-sampling", "sampled rigidity of family coordinates", _rigidity),
    ("sample-residuals", "floating-point cloud residuals", _sample_residuals),
)


def _describe_crash(exc: Exception) -> str:
    """`TypeName: message @ file:line`, naming where the exception was raised."""
    import traceback  # imported here: a run whose checks pass never needs it

    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} @ {os.path.basename(where.filename)}:{where.lineno}"


def _run_check(index: int, seed: int) -> tuple:
    """Run the check at ``CHECKS[index]``: the fields of its ``CheckResult``."""
    check_id, ref, fn = CHECKS[index]
    start = time.perf_counter()
    try:
        ok, detail = fn(seed)
    except Exception as exc:  # a crash is a failing check, not a crash of the suite
        ok, detail = False, _describe_crash(exc)
    return check_id, ref, ok, detail, time.perf_counter() - start


def _lost(index: int, status: int) -> tuple:
    """The failing result of a check whose worker died before reporting it."""
    check_id, ref, _ = CHECKS[index]
    code = os.waitstatus_to_exitcode(status)
    cause = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    return check_id, ref, False, f"worker process died before reporting: {cause}", 0.0


def run_checks(only: str | None = None, seed: int = 0) -> list[CheckResult]:
    """Run all verification checks (or one of them) and collect results in suite order.

    The selected checks are the tasks of ``workers.run_tasks``: forked
    workers and this process each take the next check as they finish, so
    the load balances itself.  A check taken by a worker that died before
    reporting it fails with the worker's exit status.  One check, one usable
    CPU, no ``os.fork``, a failed fork or another live thread leave this
    process to run every check itself.
    """
    known = {check_id for check_id, _, _ in CHECKS}
    if only is not None and only not in known:
        raise ValueError(f"unknown check {only!r}; known: {sorted(known)}")
    selected = [i for i, (check_id, _, _) in enumerate(CHECKS) if only in (None, check_id)]
    done, lost = run_tasks(lambda k: _run_check(selected[k], seed), len(selected))
    for k, status in lost.items():
        done[k] = _lost(selected[k], status)
    return [CheckResult(*done[k]) for k in range(len(selected))]
