"""The result records keep the contract they had as frozen dataclasses.

Each is a typing.NamedTuple: fields in their documented order, positional
and keyword construction, the documented defaults, equal instances equal
and hash-equal, assignment refused, and the repr strings the records have
always printed.  Sequence is a plain mutable class.
"""

from fractions import Fraction

import pytest

from nlcx import (INFINITY, BoundCheck, ComplexityReport, CountResult, CurvePoint,
                  FeedbackPolynomial, OrbitTable, PoleFunction, ProfileRow,
                  ProfileStats, Sequence, field_of_order)
from nlcx.bounds import _Construction

F5 = field_of_order(5)
WITNESS = FeedbackPolynomial(2, 1, "each", (((0, 1), 3),))

# (record type, positional values, repr); every value is hashable
CASES = [
    (FeedbackPolynomial, (2, 1, "each", (((0, 1), 3),)),
     "FeedbackPolynomial(m=2, k=1, mode='each', coeffs=(((0, 1), 3),))"),
    (ComplexityReport, ("lin", None, 4, 2, WITNESS),
     "ComplexityReport(kind='lin', k=None, n=4, value=2, witness=FeedbackPolynomial("
     "m=2, k=1, mode='each', coeffs=(((0, 1), 3),)))"),
    (BoundCheck, ("hermitian-lk", 4, 2, 6, Fraction(-3, 4), 1, True, None, 2),
     "BoundCheck(theorem='hermitian-lk', q=4, k=2, n=6, bound=Fraction(-3, 4), "
     "computed=1, passed=True, d=None, ell=2)"),
    (_Construction, ("q", "inversive", ("nk",), (("nk", 1),), len),
     "_Construction(param='q', label='inversive', kinds=('nk',), bounds=(('nk', 1),), "
     "sequences=<built-in function len>)"),
    (CountResult, (2, 1, 9, 3, 120, 4096, True),
     "CountResult(q=2, k=1, n=9, m=3, count=120, bound=4096, passed=True)"),
    (ProfileRow, (8, 4.5, 2, 7, 3, 4, 6, 3.0, 0.0, 0.25),
     "ProfileRow(n=8, mean=4.5, vmin=2, vmax=7, p05=3, p50=4, p95=6, ref=3.0, "
     "below1=0.0, below2=0.25)"),
    (ProfileStats, (2, 1, 10, 7, (2, 4), ()),
     "ProfileStats(q=2, k=1, samples=10, seed=7, grid=(2, 4), rows=())"),
    (PoleFunction, (F5, 2, 1, 3, (2,), 1),
     "PoleFunction(field=Field(q=5), ell=2, a=1, b=3, cofactor_roots=(2,), scale=1)"),
    (OrbitTable, (2, ((CurvePoint(1, 2),),), 0, (INFINITY,)),
     "OrbitTable(ell=2, orbits=((CurvePoint(x=1, y=2),),), q_orbit_index=0, "
     "other_points=(CurvePoint(x=None, y=None),))"),
]

FIELDS = {
    FeedbackPolynomial: ("m", "k", "mode", "coeffs"),
    ComplexityReport: ("kind", "k", "n", "value", "witness"),
    BoundCheck: ("theorem", "q", "k", "n", "bound", "computed", "passed", "d", "ell"),
    _Construction: ("param", "label", "kinds", "bounds", "sequences"),
    CountResult: ("q", "k", "n", "m", "count", "bound", "passed"),
    ProfileRow: ("n", "mean", "vmin", "vmax", "p05", "p50", "p95", "ref",
                 "below1", "below2"),
    ProfileStats: ("q", "k", "samples", "seed", "grid", "rows"),
    PoleFunction: ("field", "ell", "a", "b", "cofactor_roots", "scale"),
    OrbitTable: ("ell", "orbits", "q_orbit_index", "other_points"),
}

IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_record_contract(cls, values, text):
    assert cls._fields == FIELDS[cls]
    rec = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    assert rec == by_name and hash(rec) == hash(by_name)
    assert [getattr(rec, name) for name in cls._fields] == list(values)
    assert repr(rec) == text
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_records_are_tuples_of_their_fields(cls, values, text):
    rec = cls(*values)
    assert rec == tuple(values) and tuple(rec) == values and rec[0] == values[0]


def test_record_defaults():
    rep = ComplexityReport(kind="nk", k=2, n=5, value=3)
    assert rep.witness is None
    assert repr(rep) == "ComplexityReport(kind='nk', k=2, n=5, value=3, witness=None)"
    ch = BoundCheck("inversive-nk", 7, 1, 3, Fraction(1), 2, True)
    assert (ch.d, ch.ell) == (None, None)
    assert PoleFunction(F5, 2, 1, 3, (2,)).scale == 1


def test_sequence_is_a_plain_class():
    with pytest.raises(ValueError, match=r"^value 5 out of range for q=5$"):
        Sequence(F5, [1, 5])
    a, b = Sequence(F5, [1, 2]), Sequence(F5, [1, 2])
    assert a.provenance == {} and a.provenance is not b.provenance
    assert a == b and not a != b
    assert a != Sequence(F5, [1, 3])
    assert a != Sequence(field_of_order(7), [1, 2])
    assert a != Sequence(F5, [1, 2], {"kind": "random"})
    assert Sequence(field=F5, values=[1, 2], provenance={"n": 2}).provenance == {"n": 2}
    assert a != (F5, [1, 2], {}) and a != [1, 2]
    with pytest.raises(TypeError):
        hash(a)
    a.values = [3]
    a.provenance["kind"] = "raw"
    assert (a.values, a.provenance) == ([3], {"kind": "raw"})
    assert repr(b) == "Sequence(field=Field(q=5), values=[1, 2], provenance={})"
    assert (len(b), list(b), b[1]) == (2, [1, 2], 2)
