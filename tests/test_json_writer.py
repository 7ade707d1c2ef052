"""The CLI's --json writer against the pure-Python json.dumps it replaced."""

import contextlib
import io
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defslice.cli import _print_json
from defslice.hf_invariants import Interval
from defslice.obstructions import KinkinessBound, Reason, Verdict
from oracles import json_indent2


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
