"""The value types against the dataclasses they replaced.

Each class of the table below was a dataclass with these fields, in this
order; every record is now immutable, so its reference is a frozen
dataclass, rebuilt here with dataclasses.make_dataclass.  Both are made
from the same sampled field values: repr, == and != (within a class,
across classes and against a plain tuple), hash or its TypeError,
assignment to a field, and the TypeError of a bad constructor call must
behave alike.  The CLI's _json_value writes a record as the fields the
dataclass had, in order.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction
from itertools import product
from math import inf

import pytest

import defslice
from defslice.certificates import AtomCertificate
from defslice.cli import _json_value
from defslice.hf_invariants import Interval, VSeq
from defslice.knotexpr import Atom, Cable, Mirror, Sum, _Expr, _Record
from defslice.laurent import LaurentPoly, torus_alexander
from defslice.obstructions import (
    CompositeReport,
    HypothesisCheck,
    KinkinessBound,
    Reason,
    Verdict,
)
from defslice.qform_verify import CheckItem, CobordismReport, QMatrix
from defslice.signatures import CombinationCheck, SigFn

T23, T25 = Atom("T(2,3)"), Atom("T(2,5)")
REASON = Reason("tau_positive", "tau > 0", {"tau": 1})
VERDICT = Verdict("any_definite", "obstructed", [REASON])

# class: (fields in order, with (name, default) for a defaulted field,
# field values of each sample); the samples of a class include equal
# values and values that differ in one field
TABLE = {
    Atom: (["name"], [("T(2,3)",), ("T(2,3)",), ("O",), ("Wh(T(2,3))",)]),
    Mirror: (["child"], [(T23,), (Atom("T(2,3)"),), (T25,), (Mirror(T23),)]),
    Sum: (
        ["parts"],
        [((T23, T25),), ((T23, T25),), ((T25, T23),), ((T23, Mirror(T25), T23),)],
    ),
    Cable: (
        ["p", "q", "companion"],
        [(2, 3, T23), (2, 3, Atom("T(2,3)")), (2, 5, T23), (3, 2, T23), (2, 3, Mirror(T25))],
    ),
    Interval: (
        ["lo", "hi"],
        [(0, inf), (0, inf), (-inf, 3), (-1, -1), (Fraction(1, 2), 1), (1, 1), (-1, 0)],
    ),
    VSeq: (
        ["lo", "hi"],
        [((1, 0), (1, 0)), ((1, 0), (1, 0)), ((0,), (inf,)), ((1, 0), (2, 0))],
    ),
    SigFn: (
        [("jumps", ())],
        [(), ((),), (((Fraction(1, 3), -2),),), (((Fraction(1, 3), -2), (Fraction(1, 2), 4)),)],
    ),
    AtomCertificate: (
        [
            "name",
            ("tau", None),
            ("genus", None),
            ("lspace", False),
            ("alexander", None),
            ("v0", None),
            ("v0_mirror", None),
        ],
        [
            ("Y",),
            ("Y", None, None, False, None, None, None),
            ("Y", 1),
            ("T(2,3)", 1, 1, True, torus_alexander(2, 3), 1),
            ("T(2,3)", 1, 1, True, torus_alexander(2, 3), 1, 0),
        ],
    ),
    QMatrix: (["rows"], [(((2,),),), (((2,),),), (((2, 1), (1, 0)),), (((-2,),),)]),
    CombinationCheck: (
        ["bound", "count", "dependent"],
        [(1, 8, ()), (1, 8, ()), (2, 24, ()), (1, 8, ((1, -1),))],
    ),
    KinkinessBound: (["k_plus_lo", "k_minus_lo"], [(0, 1), (0, 1), (1, 0), (0, 0)]),
    Reason: (
        ["rule", "statement", "evidence"],
        [
            ("r", "s", {"a": 1}),
            ("r", "s", {"a": 1}),
            ("r", "s", {"a": Fraction(1, 2)}),
            ("q", "s", {}),
        ],
    ),
    Verdict: (
        ["target", "status", "reasons"],
        [
            ("any_definite", "obstructed", [REASON]),
            ("any_definite", "obstructed", [Reason("tau_positive", "tau > 0", {"tau": 1})]),
            ("any_definite", "inconclusive", []),
            ("negative_definite", "obstructed", [REASON, REASON]),
        ],
    ),
    HypothesisCheck: (
        ["name", "certified", "evidence"],
        [
            ("h", True, {"x": 1}),
            ("h", True, {"x": 1}),
            ("h", False, {"x": 1}),
            ("h", True, {"x": Interval(0, inf)}),
        ],
    ),
    CompositeReport: (
        ["expression", "hypotheses", "verdict"],
        [
            (Sum((T23, Mirror(T25))), [], VERDICT),
            (Sum((T23, Mirror(T25))), [], Verdict("any_definite", "obstructed", [REASON])),
            (T23, [HypothesisCheck("h", True, {})], VERDICT),
            (T23, [], Verdict("any_definite", "inconclusive", [])),
        ],
    ),
    CheckItem: (
        ["name", "passed", "detail"],
        [("c", True, "d"), ("c", True, "d"), ("c", False, "d"), ("c", True, "")],
    ),
    CobordismReport: (
        [
            "n",
            "items",
            "skipped",
            "c1_sq",
            "c1_outside",
            "c1_cobordism",
            "sigma_cobordism",
            "b2_cobordism",
        ],
        [
            (1, [], (), Fraction(1), Fraction(1, 2), Fraction(0), -1, 2),
            (1, [], (), Fraction(1), Fraction(1, 2), Fraction(0), -1, 2),
            (1, [CheckItem("c", True, "d")], (), Fraction(1), Fraction(1, 2), Fraction(0), -1, 2),
            (2, [], ("x",), Fraction(2, 3), Fraction(1, 2), Fraction(0), -2, 3),
        ],
    ),
}

CLASSES = list(TABLE)


def _names(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


def _reference(cls):
    spec = [f if isinstance(f, str) else (f[0], object, f[1]) for f in TABLE[cls][0]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


REFERENCES = {cls: _reference(cls) for cls in CLASSES}


def _pairs(cls):
    """(value, reference) for each sample of cls, each made afresh."""
    return [(cls(*args), REFERENCES[cls](*args)) for args in TABLE[cls][1]]


def _outcome(f, *args):
    try:
        return f(*args)
    except TypeError:
        return TypeError


def test_seventeen_classes():
    assert len(CLASSES) == 17


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_in_the_table():
    # a new value type cannot skip the differential against its dataclass
    for module in pkgutil.iter_modules(defslice.__path__):
        importlib.import_module(f"defslice.{module.name}")
    records = {c for c in _subclasses(_Record) if c.__module__.startswith("defslice.")}
    assert records - {_Expr} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_and_fields(cls):
    names = _names(TABLE[cls][0])
    assert list(cls.__slots__) == names
    for value, ref in _pairs(cls):
        assert repr(value) == repr(ref)
        assert [getattr(value, n) for n in names] == [getattr(ref, n) for n in names]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keywords_and_defaults(cls):
    names = _names(TABLE[cls][0])
    for args in TABLE[cls][1]:
        by_name = dict(zip(names, args))
        assert cls(**by_name) == cls(*args)
        assert repr(cls(**by_name)) == repr(REFERENCES[cls](**by_name))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_within_the_class(cls):
    pairs = _pairs(cls)
    for (a, ra), (b, rb) in product(pairs, repeat=2):
        assert (a == b) is (ra == rb)
        assert (a != b) is (ra != rb)
    # every class has a pair of equal samples and a pair of unequal ones
    assert pairs[0][0] == pairs[1][0] and pairs[0][0] is not pairs[1][0]
    assert pairs[0][0] != pairs[2][0]


def test_equality_across_classes():
    # Interval and VSeq have the same field names: the names do not make
    # two classes equal
    samples = [(a, ra, cls) for cls in CLASSES for a, ra in _pairs(cls)]
    for (a, ra, ca), (b, rb, cb) in product(samples, repeat=2):
        if ca is not cb:
            assert a != b and not (a == b)
            assert (ra == rb) is False
    for cls in CLASSES:
        for args, (a, ra) in zip(TABLE[cls][1], _pairs(cls)):
            assert a != args and (a == args) is (ra == args) is False
    assert Atom("x") != Mirror(Atom("x"))
    assert Interval(0, 1) != VSeq(0, 1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_hash(cls):
    # a record that holds a list or a dict raises TypeError, as its
    # reference does
    hashable = []
    for value, ref in _pairs(cls):
        assert _outcome(hash, value) == _outcome(hash, ref)
        if _outcome(hash, value) is not TypeError:
            hashable.append((value, ref))
    assert len({value for value, _ in hashable}) == len({ref for _, ref in hashable})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment(cls):
    names = _names(TABLE[cls][0])
    value, ref = _pairs(cls)[0]
    for name in names:
        new = getattr(_pairs(cls)[-1][0], name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ref, name, new)
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == repr(ref)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_constructor_calls(cls):
    fields = TABLE[cls][0]
    names = _names(fields)
    # every field given, from the longest sample and the defaults
    full = max(TABLE[cls][1], key=len)
    args = [*full, *(f[1] for f in fields[len(full):])]
    bad = [
        (args + [args[0]], {}),  # too many positional arguments
        (args, {"bogus": 1}),  # an unknown keyword
        (args, {names[0]: args[0]}),  # a field given twice
    ]
    if isinstance(fields[0], str):
        bad.append(([], {}))  # a missing field
    cls(*args)
    REFERENCES[cls](*args)
    for a, kw in bad:
        with pytest.raises(TypeError):
            cls(*a, **kw)
        with pytest.raises(TypeError):
            REFERENCES[cls](*a, **kw)


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not Interval], ids=lambda c: c.__name__)
def test_json_value_is_the_fields_in_order(cls):
    # the parent's _json_value read dataclasses.fields; an Interval has its
    # own {lo, hi} form, with null for an infinite end
    for value, ref in _pairs(cls):
        want = {f.name: getattr(ref, f.name) for f in dataclasses.fields(ref)}
        got = _json_value(value)
        assert list(got) == list(want) and got == want


def test_json_value_refuses_a_laurent_polynomial():
    with pytest.raises(TypeError, match="LaurentPoly has no JSON form"):
        _json_value(LaurentPoly.one())
