"""The CLI's --json writer against the pure-Python json.dumps it replaced."""

import contextlib
import io
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defslice import cli
from defslice.certificates import default_db
from defslice.cli import _WRITERS, _array, _members, _print_json, build_report
from defslice.hf_invariants import Interval
from defslice.laurent import LaurentPoly
from defslice.obstructions import KinkinessBound, Reason, Verdict
from defslice.signatures import HALF, SigFn
from oracles import json_indent2
from workload_inputs import workload_argvs, workload_report_texts


def printed(data):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(data)
    return out.getvalue()


# Strings with characters json escapes: quotes, backslashes, control
# characters, non-ASCII, astral and lone surrogate code points
_SPECIAL = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u03c0", "\u2028", "\U0001f600", "\ud800"]
strings = st.one_of(
    st.text(),
    st.text(st.sampled_from(_SPECIAL + ["a", " "])),
    st.text(st.characters(blacklist_categories=())),
)
# ints of many digits and of either sign, and bools next to the ints they equal
ints = st.one_of(st.integers(), st.integers(-(10**60), 10**60), st.sampled_from([0, 1, -1]))
scalars = st.one_of(strings, ints, st.booleans(), st.none())
ends = st.integers(-50, 50)
intervals = st.builds(
    lambda a, b, lo_inf, hi_inf: Interval(-inf if lo_inf else min(a, b), inf if hi_inf else max(a, b)),
    ends,
    ends,
    st.booleans(),
    st.booleans(),
)
bounds = st.builds(KinkinessBound, ints, ints)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    )


# Typed values nest in containers and in each other, so a Fraction or an
# interval sits inside a list or a dict inside a record (a verdict or a reason)
typed = st.recursive(
    st.one_of(st.fractions(), intervals, bounds),
    lambda c: st.one_of(
        st.builds(
            Verdict,
            strings,
            st.sampled_from(["obstructed", "inconclusive"]),
            st.lists(st.builds(Reason, strings, strings, st.dictionaries(strings, c, max_size=3)), max_size=2),
        ),
        containers(c),
    ),
    max_leaves=6,
)
values = st.recursive(st.one_of(scalars, typed), containers, max_leaves=25)


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_matches_json_dumps(self, data):
        assert printed(data) == json_indent2(data) + "\n"

    @pytest.mark.parametrize(
        "data",
        [
            [],
            (),
            {},
            [[], {}, ()],
            {"a": [], "b": {}},
            [True, 1, False, 0, None],
            {"t": True, "one": 1, "f": False, "zero": 0},
            -(10**100),
            "",
            Fraction(-7, 3),
            [Interval(-inf, 4), Interval(2, 2), Interval(-inf, inf)],
            {"v": Verdict("any_definite", "obstructed", [Reason("r", "s", {"at": Fraction(1, 6)})])},
        ],
    )
    def test_edge_values(self, data):
        assert printed(data) == json_indent2(data) + "\n"

    @pytest.mark.parametrize(
        "data",
        [
            Fraction(5),
            Fraction(-1, 6),
            {"x": Fraction(1, 6), "n": Fraction(-4), "one": Fraction(1)},
            [Fraction(0), Fraction(-10**40, 3), Fraction(7, 10**30)],
            (Fraction(-1, 2), [Fraction(3)], {}),
            [{"from": Fraction(0), "to": Fraction(1, 12), "value": 0}, {"from": Fraction(1, 12), "to": Fraction(1, 2), "value": -2}],
            {"a": [{"b": [Fraction(-5, 7), {"c": Fraction(2)}]}], "d": [[[Fraction(-1)]]]},
            {"at": Fraction(1, 3), "jumps": [[Fraction(1, 6), -2], [Fraction(5, 12), 2]], "ok": True, "none": None},
        ],
        ids=["den-1", "negative", "in-dict", "in-list", "in-tuple", "sigma-pieces", "nested", "beside-scalars"],
    )
    def test_fractions(self, data):
        assert printed(data) == json_indent2(data) + "\n"

    def test_deep_nesting(self):
        data = "leaf"
        for depth in range(120):
            data = [data] if depth % 2 else {"k": data, "n": depth}
        assert printed(data) == json_indent2(data) + "\n"


# The engine values that the writer writes as one text, and lists and
# dicts of the shapes they once were built into: [exp, coeff] pairs of
# ints of up to 60 digits and of bools; signature pieces with their keys in
# and out of order, with an extra key and with int, bool or Fraction
# values; intervals with int, Fraction or bool ends and with infinite ends;
# Laurent polynomials, the zero one included, and signature functions
pairs = st.one_of(
    st.tuples(ints, ints).map(list),
    st.tuples(ints, ints),
    st.lists(st.one_of(ints, st.booleans()), min_size=2, max_size=2),
    st.lists(st.one_of(ints, st.booleans(), st.fractions(), st.none()), max_size=3),
)
_PIECE_KEYS = ["from", "to", "value"]
piece_values = st.one_of(st.fractions(), ints, st.booleans())
pieces = st.one_of(
    st.builds(lambda a, b, v: {"from": a, "to": b, "value": v}, st.fractions(), st.fractions(), ints),
    st.builds(
        lambda keys, vals: dict(zip(keys, vals)),
        st.permutations(_PIECE_KEYS),
        st.lists(piece_values, min_size=3, max_size=3),
    ),
    st.builds(
        lambda keys, at, extra, vals: dict(zip(keys[:at] + [extra] + keys[at:], vals)),
        st.permutations(_PIECE_KEYS),
        st.integers(0, 3),
        st.one_of(strings, st.sampled_from(["from", "value", "hi"])),
        st.lists(piece_values, min_size=4, max_size=4),
    ),
)
any_ends = st.one_of(st.integers(-50, 50), st.fractions(), st.booleans(), ints)
any_intervals = st.builds(
    lambda a, b, lo_inf, hi_inf: Interval(-inf if lo_inf else min(a, b), inf if hi_inf else max(a, b)),
    any_ends,
    any_ends,
    st.booleans(),
    st.booleans(),
)
polys = st.dictionaries(ints, ints, max_size=6).map(LaurentPoly)
sigfns = st.builds(
    lambda xs, deltas: SigFn(tuple(zip(sorted(xs), deltas))),
    st.sets(st.fractions(Fraction(0), HALF).filter(bool), max_size=5),
    st.lists(st.integers(-3, 3).filter(bool).map(lambda d: 2 * d), min_size=5, max_size=5),
)
engine_values = st.one_of(any_intervals, st.fractions(), polys, sigfns)
records = st.one_of(pairs, pieces, engine_values)


class TestRecordShapes:
    @settings(max_examples=150, deadline=None)
    @given(st.recursive(records, containers, max_leaves=8))
    def test_matches_json_dumps(self, data):
        assert printed(data) == json_indent2(data) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records, min_size=1, max_size=3), st.integers(1, 4))
    def test_nested_in_lists_and_dicts(self, items, depth):
        # each level adds a list and a dict around the records, so an item
        # written at the wrong indent shows
        data = items
        for level in range(depth):
            data = {"k": [data, {"r": items[0]}], "n": level}
        assert printed(data) == json_indent2(data) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(engine_values, st.sampled_from(["\n", "\n  ", "\n        "]))
    def test_every_writer_returns_text(self, data, nl):
        text = _WRITERS[type(data)](data, nl)
        assert type(text) is str
        assert printed(data) == json_indent2(data) + "\n"

    @pytest.mark.parametrize(
        "data",
        [
            [1, True],
            (False, 0),
            (0, -1),
            [1, None],
            [1, Fraction(1, 2)],
            [1, 2, 3],
            {"to": Fraction(1), "from": Fraction(0), "value": 0},
            {"from": Fraction(0), "to": Fraction(1), "value": True},
            {"from": 0, "to": Fraction(1), "value": 0},
            {"from": Fraction(0), "to": Fraction(1), "value": Fraction(2)},
            {"from": Fraction(0), "to": Fraction(1), "value": 0, "x": 1},
            [-3, 10**60],
            [0, -1],
            {"from": Fraction(0), "to": Fraction(1, 12), "value": -2},
        ],
    )
    def test_other_shapes_take_the_general_walk(self, data):
        # lists, tuples and dicts, those in the shape of an [exp, coeff]
        # pair or a signature piece too, take the container writers
        if type(data) is dict:
            assert _WRITERS[dict](data, "\n  ") == _members(data.items(), "\n  ")
        else:
            assert _WRITERS[type(data)] is _array
        assert printed([data, {"x": data}]) == json_indent2([data, {"x": data}]) + "\n"

    @pytest.mark.parametrize(
        "data",
        [
            Interval(-inf, 4),
            Interval(0, inf),
            Interval(-(10**60), 10**60),
            Interval(Fraction(1, 2), 3),
            Interval(-inf, Fraction(7, 3)),
            Interval(False, True),
            LaurentPoly({-1: 1, 0: -1, 1: 1}),
            LaurentPoly({-3: 10**60, 5: -2}),
            LaurentPoly.zero(),
            SigFn(((Fraction(1, 6), -2),)),
            SigFn(),
        ],
    )
    def test_record_shapes_are_written_inline(self, data):
        text = _WRITERS[type(data)](data, "\n    ")
        doc = {"a": [data]}
        assert printed(doc) == '{\n  "a": [\n    ' + text + "\n  ]\n}\n" == json_indent2(doc) + "\n"

    def test_workload_reports(self):
        # every --json report document of the cables, cli-mix and wide-sums
        # workloads at their default seed
        db = default_db()
        shapes = {"pairs": 0, "pieces": 0, "intervals": 0}
        documents = 0
        for text in workload_report_texts(("cables", "cli-mix", "wide-sums")):
            try:
                data = build_report(text, db)
            except ValueError:
                continue  # the workloads' malformed inputs
            assert printed(data) == json_indent2(data) + "\n", text
            documents += 1
            if data["alexander"] is not None:
                shapes["pairs"] += len(data["alexander"].items())
            if data["sigma"] is not None:
                shapes["pieces"] += len(data["sigma"].pieces())
            shapes["intervals"] += len(data["v"]) + 3
        assert documents == 405, documents
        assert min(shapes.values()) > 3000, shapes

    def test_workload_documents(self, monkeypatch):
        # every --json document that an op of the four benchmark workloads
        # prints at seeds 1 to 3: reports, sigma with its pieces, surgery
        # with its Fraction-ended intervals, independence, the suites and
        # check-bcg
        commands = {}

        def checked(data):
            assert printed(data) == json_indent2(data) + "\n", argv
            commands[argv[0]] = commands.get(argv[0], 0) + 1

        monkeypatch.setattr(cli, "_print_json", checked)
        names = ("suites", "cli-mix", "wide-sums", "cables")
        argvs = {tuple(argv): None for seed in (1, 2, 3) for argv in workload_argvs(names, seed)}
        for argv in argvs:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
        # the distinct argvs of the three seeds but the malformed ones
        assert commands == {
            "report": 819, "sigma": 24, "surgery": 36, "independence": 18, "suite": 5, "check-bcg": 1
        }


class _Name(str):
    pass


class _Ratio(Fraction):
    pass


class _Level(IntEnum):
    ONE = 1


class TestRefused:
    @pytest.mark.parametrize(
        "data",
        [
            1.5,
            [0.0],
            {"a": {"b": float("inf")}},
            {1: "int key"},
            {"a": [{None: 1}]},
            {(1, 2): "tuple key"},
            {True: "bool key"},
            object(),
        ],
        ids=["float", "float-in-list", "inf-in-dict", "int-key", "none-key", "tuple-key", "bool-key", "object"],
    )
    def test_type_error(self, data):
        with pytest.raises(TypeError):
            printed(data)

    @pytest.mark.parametrize("where", ["top", "nested"])
    @pytest.mark.parametrize(
        "value",
        [_Name("x"), _Ratio(1, 3), _Level.ONE, OrderedDict(a=1)],
        ids=["str-subclass", "fraction-subclass", "int-enum", "ordered-dict"],
    )
    def test_subclass_of_a_written_type(self, value, where):
        # the form is chosen by exact type, so a subclass has none
        with pytest.raises(TypeError):
            printed(value if where == "top" else {"a": [1, {"b": value}]})
