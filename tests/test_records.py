"""The package's record types: frozen values, one identity table and one mutable cloud.

Equality and hashing go by the class and the tuple of compared fields, with
the hash of that tuple, so set and dict orders, and with them every output
byte, do not depend on how the classes are written.
"""

from fractions import Fraction

import pytest

from celestial.exact import GaussianRational, Matrix, Record, Signature
from celestial.forms import CelestialRecord, FamilyCoeffs
from celestial.geometry import BlowupConfig, NSClass, StereographicReport
from celestial.lattice import LatticePolygon, LatticeType, UnimodularInvolution
from celestial.liealg import ActionTable, LieElement
from celestial.sampling import PointCloud
from celestial.segre import MonomialParam, QuadraticForm
from celestial.verify import CheckResult, LatticeRow

_TRIANGLE = ((0, 0), (1, 0), (0, 1))
_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
_SWAP = ((0, 1), (1, 0))
_H = Matrix([[1, 0], [0, -1]])
_E = Matrix([[0, 1], [0, 0]])


def _row(counts):
    return LatticeRow("e", "ring cyclide", _SQUARE, UnimodularInvolution(_SWAP), counts,
                      ((1, 0), (0, 1)), 2, None)


# class -> (a builder of one value, the same fields with one compared field
# changed, the compared fields in order)
FROZEN = {
    GaussianRational: (lambda: GaussianRational(Fraction(1), Fraction(2)),
                       lambda: GaussianRational(Fraction(1), Fraction(3)), ("re", "im")),
    Signature: (lambda: Signature(1, 4, 4), lambda: Signature(1, 4, 3), ("pos", "neg", "zero")),
    FamilyCoeffs: (lambda: FamilyCoeffs(1, 2, 3, 5), lambda: FamilyCoeffs(1, 2, 3, 4),
                   ("c1", "c3", "c5", "c7")),
    CelestialRecord: (lambda: CelestialRecord(3, 6, 5, "", "PSO(2)xPSO(2)", 2, True, "dP6"),
                      lambda: CelestialRecord(3, 5, 5, "", "PSO(2)xPSO(2)", 2, True, "dP6"),
                      ("circles", "degree", "ambient", "singular_locus", "group_name",
                       "moduli_dim", "moebius_equals_full_aut", "name")),
    NSClass: (lambda: NSClass((1, 0, 0, 0, 0, 0)), lambda: NSClass((0, 1, 0, 0, 0, 0)), ("coeffs",)),
    BlowupConfig: (lambda: BlowupConfig((1, 2), pi2_fibers=((1, 2),)), lambda: BlowupConfig((1, 2)),
                   ("points", "pi1_fibers", "pi2_fibers", "near")),
    StereographicReport: (lambda: StereographicReport(True, Fraction(1), Fraction(1), 98, 0),
                          lambda: StereographicReport(True, Fraction(1), Fraction(1), 97, 1),
                          ("ok", "cone_constant", "cylinder_radius_sq", "samples", "skipped")),
    LatticePolygon: (lambda: LatticePolygon(_TRIANGLE), lambda: LatticePolygon(_SQUARE), ("vertices",)),
    UnimodularInvolution: (lambda: UnimodularInvolution(_SWAP),
                           lambda: UnimodularInvolution(((1, 0), (0, 1))), ("m",)),
    LatticeType: (lambda: LatticeType.of(LatticePolygon(_TRIANGLE), UnimodularInvolution(_SWAP)),
                  lambda: LatticeType.of(LatticePolygon(_SQUARE), UnimodularInvolution(_SWAP)),
                  ("polygon", "involution", "directions")),
    MonomialParam: (lambda: MonomialParam(((0, 0), (1, 0))), lambda: MonomialParam(((0, 0), (1, 0)), (0, 2)),
                    ("exponents", "coords")),
    QuadraticForm: (lambda: QuadraticForm(Matrix([[1, 0], [0, 1]])),
                    lambda: QuadraticForm(Matrix([[1, 0], [0, 2]])), ("matrix",)),
    LieElement: (lambda: LieElement(_H, _E), lambda: LieElement(_E, _H), ("left", "right")),
    LatticeRow: (lambda: _row((1, 4, 4)), lambda: _row((1, 4, 6)),
                 ("ref", "name", "vertices", "involution", "counts", "directions", "i2_dimension",
                  "merges_with")),
    CheckResult: (lambda: CheckResult("lemma-i2", "Lemma 1", True, "ok", 0.5),
                  lambda: CheckResult("lemma-i2", "Lemma 1", False, "ok", 0.5),
                  ("check_id", "ref", "ok", "detail")),
}


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_is_a_value(cls):
    make, changed, compared = FROZEN[cls]
    a, b, c = make(), make(), changed()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in compared))
    assert a != c
    assert a.__eq__(object()) is NotImplemented
    for name in compared:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_every_record_type_is_covered():
    assert set(Record.__subclasses__()) == set(FROZEN) | {ActionTable}


def test_a_check_result_compares_without_its_time():
    a = CheckResult("lemma-i2", "Lemma 1", True, "ok", 0.5)
    b = CheckResult("lemma-i2", "Lemma 1", True, "ok")
    assert a == b and hash(a) == hash(b) and b.elapsed_s == 0.0
    assert repr(a) == "CheckResult(check_id='lemma-i2', ref='Lemma 1', ok=True, detail='ok', elapsed_s=0.5)"


def test_an_action_table_compares_by_identity():
    fields = (Matrix.identity(2), (), Matrix.zero(2, 2), (0, 1))
    a, b = ActionTable(*fields), ActionTable(*fields)
    assert a == a and a != b and len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.coords = (1, 0)


def test_a_point_cloud_is_mutable():
    cloud = PointCloud([(0.0, 0.0, 1.0)], 0, 0.0)
    cloud.points.append((1.0, 0.0, 0.0))
    cloud.skipped, cloud.max_residual = 2, 0.25
    assert (len(cloud.points), cloud.skipped, cloud.max_residual) == (2, 2, 0.25)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FamilyCoeffs(0, 0, 0, 0), "must not all vanish"),
        (lambda: LatticePolygon(((0, 0), (1, 0))), "at least 3 vertices"),
        (lambda: LatticePolygon(tuple(reversed(_SQUARE))), "strictly convex and counterclockwise"),
        (lambda: UnimodularInvolution(((2, 0), (0, 1))), "not unimodular"),
        (lambda: UnimodularInvolution(((1, 1), (0, 1))), "not an involution"),
        (lambda: LieElement(Matrix.identity(3), _E), "2x2"),
        (lambda: LieElement(_H, Matrix.identity(2)), "traceless"),
        (lambda: QuadraticForm(_E), "symmetric"),
    ],
    ids=["zero-coeffs", "two-vertices", "clockwise", "not-unimodular", "not-involution",
         "not-2x2", "not-traceless", "not-symmetric"],
)
def test_a_record_rejects_what_it_cannot_hold(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_records_fill_in_their_fields():
    c = FamilyCoeffs(1, 2, "3/2", Fraction(5))
    assert all(type(x) is Fraction for x in c.as_tuple())
    assert c.as_tuple() == (1, 2, Fraction(3, 2), 5)
    assert MonomialParam(((0, 0), (1, 0), (0, 1))).coords == (0, 1, 2)
    assert BlowupConfig((1, 2)).near == ()


def test_a_record_repr_names_its_fields():
    assert repr(FamilyCoeffs(1, 2, Fraction(3, 2), 5)) == (
        "FamilyCoeffs(c1=Fraction(1, 1), c3=Fraction(2, 1), c5=Fraction(3, 2), c7=Fraction(5, 1))"
    )
    assert repr(Signature(1, 4, 4)) == "Signature(pos=1, neg=4, zero=4)"
    assert repr(LatticeType.of(LatticePolygon(_TRIANGLE), UnimodularInvolution(_SWAP))) == (
        "LatticeType(polygon=LatticePolygon(vertices=((0, 0), (1, 0), (0, 1))), "
        "involution=UnimodularInvolution(m=((0, 1), (1, 0))), directions=frozenset({(1, -1)}))"
    )
