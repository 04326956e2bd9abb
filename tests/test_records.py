"""Every record of the package is a frozen value: its fields cannot be
assigned or deleted, its repr reads Name(field=value, ...), and two records
with equal fields compare and hash equal, cached values aside.  The one
exception is NeronSeveri, which compares by identity."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from k3lattices.fibration import (
    FiberGraph,
    FiberReport,
    FiberSpec,
    FibrationAnalysis,
    FibrationModel,
    NeronSeveri,
    WeierstrassModel,
)
from k3lattices.fixedlocus import ChainWalk, FixedLocusProfile, FixedPoint
from k3lattices.intmat import IntMatrix
from k3lattices.lattices import DiscriminantGroup, Lattice, discriminant_group
from k3lattices.polynomials import Poly
from k3lattices.sublattices import GlueSolution, Overlattice, Sublattice
from k3lattices.verify import CheckResult, VerificationReport, run_verification

U = IntMatrix.from_rows([[0, 1], [1, 0]])
A2 = IntMatrix.from_rows([[-2, 1], [1, -2]])
POINT = FixedPoint(("G1", "G2"), (2, 6))
CHECK = CheckResult("01-a15", "det A15 = -16", True, (("det", "-16"),))

# record class -> (a builder of a fresh instance, its fields in order)
RECORDS = {
    Lattice: (lambda: Lattice(U, "U"), ("gram", "label")),
    DiscriminantGroup: (lambda: discriminant_group(Lattice(A2, "A2")),
                        ("invariant_factors", "numerators", "gram")),
    Sublattice: (lambda: Sublattice(Lattice(U), IntMatrix.from_rows([[1], [1]])),
                 ("ambient", "coords")),
    GlueSolution: (lambda: GlueSolution(2, (1, 0), (1,)), ("n", "H", "a")),
    Overlattice: (lambda: Overlattice((1, 1), 2, A2, 2), ("glue", "scale", "gram", "index")),
    FixedLocusProfile: (lambda: FixedLocusProfile(4, 2, 1, 0, (1,)),
                        ("rank", "n26", "n35", "n44", "curves")),
    FixedPoint: (lambda: FixedPoint(("G1", "G2"), (2, 6)), ("curves", "exponents")),
    ChainWalk: (lambda: ChainWalk(("G7",), (POINT,), ()),
                ("fixed_curves", "points", "conflicts")),
    WeierstrassModel: (lambda: WeierstrassModel(Poly.of([1]),
                                                Poly.of([-1, 0, 0, 0, 0, 0, 0, 1]), "i7e8",
                                                Fraction(-27, 4)),
                       ("a4", "a6", "label", "a4_scale_cubed")),
    FiberReport: (lambda: FiberReport("0", "I7"), ("place", "kodaira", "count")),
    FibrationAnalysis: (lambda: FibrationAnalysis("i7e8", (FiberReport("inf", "II*"),),
                                                  10, 20, 0),
                        ("label", "fibers", "euler_total", "ns_rank", "mw_rank", "notes")),
    FiberGraph: (lambda: FiberGraph((1, 1), ((0, 1, 2),)), ("multiplicities", "edges")),
    FiberSpec: (lambda: FiberSpec("0", "I2", "a", ("a", "b")),
                ("place", "kodaira", "identity", "components", "count")),
    FibrationModel: (lambda: FibrationModel((FiberSpec("0", "II*"), FiberSpec("inf", "II*"),
                                             FiberSpec("1", "I1", count=4)), 0),
                     ("fibers", "mw_rank")),
    NeronSeveri: (lambda: NeronSeveri(Lattice(U), {"S": (1, 0)}), ("lattice", "vectors")),
    IntMatrix: (lambda: IntMatrix.from_rows([[1, 2], [3, 4]]), ("rows", "cols", "entries")),
    Poly: (lambda: Poly.of([1, Fraction(1, 2)]), ("ints", "content")),
    CheckResult: (lambda: CheckResult("01-a15", "det A15 = -16", True, (("det", "-16"),)),
                  ("check_id", "anchor", "passed", "values")),
    VerificationReport: (lambda: VerificationReport("0.1.0", "2026-01-01T00:00:00+00:00",
                                                    (CHECK,)),
                         ("version", "timestamp", "checks")),
}
VALUE_RECORDS = [cls for cls in RECORDS if cls is not NeronSeveri]
# the cached properties each record computes from its fields
CACHED = {Lattice: "det", Sublattice: "smith", WeierstrassModel: "discriminant",
          FibrationModel: "ns_rank"}


def names(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=names)
def test_fields_cannot_be_assigned_or_deleted(cls):
    build, fields = RECORDS[cls]
    record = build()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=names)
def test_repr_names_every_field(cls):
    build, fields = RECORDS[cls]
    record = build()
    inner = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({inner})"


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=names)
def test_equal_fields_compare_and_hash_equal(cls):
    build, _ = RECORDS[cls]
    a, b = build(), build()
    if cls in CACHED:
        getattr(a, CACHED[cls])      # the cache takes no part in equality
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object()


def test_different_fields_compare_unequal():
    assert FixedLocusProfile(4, 2, 1, 0, ()) != FixedLocusProfile(4, 2, 0, 1, ())
    assert Lattice(U, "U") != Lattice(U, "")
    assert Poly.of([1, 2]) != Poly.of([2, 4])


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=names)
def test_copies_and_pickles_compare_equal(cls):
    record = RECORDS[cls][0]()
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_neron_severi_compares_by_identity():
    build, _ = RECORDS[NeronSeveri]
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_construction_keeps_positional_keywords_and_defaults():
    assert Lattice(U, "U").label == "U" and Lattice(gram=U).label == ""
    w = WeierstrassModel(Poly.of([8]), Poly.of([1]))
    assert (w.label, w.a4_scale_cubed) == ("", 1)
    assert FiberSpec("0", "I1", count=3) == FiberSpec("0", "I1", "", (), 3)
    assert FiberReport("0", "I1").count == 1
    assert FibrationAnalysis("", (), 0, 20, 0).notes == ()


def test_discriminant_is_computed_once():
    w = RECORDS[WeierstrassModel][0]()
    assert vars(w)["discriminant"] is w.discriminant is w.discriminant


def test_verify_timestamp_is_utc_to_the_second():
    stamp = run_verification().timestamp
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
