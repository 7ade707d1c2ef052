"""Obstruction verdicts, composite construction, kinkiness."""

import contextlib
import io
import json
import random
from math import inf

import pytest
from hypothesis import given, settings

from defslice.certificates import AtomCertificate, default_db
from defslice.hf_invariants import Evaluator, Interval
from defslice.cli import _print_json
from defslice.knotexpr import (
    MAX_GENUS,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    Atom,
    Cable,
    Mirror,
    SizeLimitError,
    Sum,
    parse,
    torus_atom,
)
from defslice.obstructions import (
    RULE_A,
    RULE_B,
    RULE_C,
    RULE_COMBINED,
    kinkiness_bounds,
    obstruct_definite,
    obstruct_negative_definite,
    composite_cable_obstruction,
)

from oracles import all_certified, obstruct_definite_by_verdicts
from strategies import ATOM_NAMES, expressions, expressions_any_cable

WH = Atom(WHITEHEAD_TREFOIL)


def kn(n):
    return parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")


def jk(k):
    parts = (torus_atom(2, 2 * k + 9),) + tuple(
        Mirror(torus_atom(2, 3)) for _ in range(k + 5)
    )
    return Sum(parts)


class TestNegativeDefinite:
    def test_trefoil_obstructed(self):
        v = obstruct_negative_definite(torus_atom(2, 3), Evaluator())
        assert v.obstructed

    def test_unknot_inconclusive(self):
        v = obstruct_negative_definite(UNKNOT, Evaluator())
        assert not v.obstructed and v.status == "inconclusive"

    def test_whitehead_sum_obstructed(self):
        v = obstruct_negative_definite(Sum((WH, WH, WH)), Evaluator())
        assert v.obstructed  # V_0 = 2 via the substitution axiom


class TestDefinite:
    def test_kn_family_rule_a(self):
        for n in range(1, 11):
            v = obstruct_definite(kn(n), Evaluator())
            assert v.obstructed
            assert any(r.rule == RULE_A for r in v.reasons)

    def test_jk_family_rule_c(self):
        for k in range(1, 11):
            v = obstruct_definite(jk(k), Evaluator())
            assert v.obstructed
            rules = [r.rule for r in v.reasons]
            assert RULE_C in rules
            assert RULE_A not in rules  # d1 is not certified nonzero here

    def test_unknot_inconclusive(self):
        assert not obstruct_definite(UNKNOT, Evaluator()).obstructed

    def test_mirror_duality_of_rules(self):
        for e in [kn(2), torus_atom(2, 5), Mirror(kn(3))]:
            ve = obstruct_definite(e, Evaluator())
            vm = obstruct_definite(Mirror(e), Evaluator())
            fires_a = any(r.rule == RULE_A for r in ve.reasons)
            fires_b_mirror = any(r.rule == RULE_B for r in vm.reasons)
            assert fires_a == fires_b_mirror

    @settings(max_examples=150, deadline=None)
    @given(e=expressions(max_leaves=4))
    def test_mirror_duality_random(self, e):
        ve = obstruct_definite(e, Evaluator())
        vm = obstruct_definite(Mirror(e), Evaluator())
        fires_a = any(r.rule == RULE_A for r in ve.reasons)
        fires_b_mirror = any(r.rule == RULE_B for r in vm.reasons)
        assert fires_a == fires_b_mirror

    def test_headline_combination(self):
        # the family is simultaneously topologically slice and obstructed
        from defslice.knotexpr import topologically_slice_certified

        for n in range(1, 21):
            e = kn(n)
            assert topologically_slice_certified(e)
            assert obstruct_definite(e, Evaluator()).obstructed

    @settings(max_examples=150, deadline=None)
    @given(e=expressions(max_leaves=4))
    def test_widening_never_creates_obstruction(self, db, degraded_db, e):
        wide = obstruct_definite(e, Evaluator(degraded_db))
        full = obstruct_definite(e, Evaluator(db))
        if wide.obstructed:
            assert full.obstructed


# registry atoms without a signature rule, so that rule C never fires on
# them: Z and Z3 have both V_0 positive with tau = 0 (the one-sided
# combination), Zu the same with tau unknown, Y2 an unbounded V_0
ONE_SIDED_DB = (
    default_db()
    .with_atom(AtomCertificate(name="Z", tau=0, genus=2, v0=1, v0_mirror=1))
    .with_atom(AtomCertificate(name="Z3", tau=0, genus=3, v0=2, v0_mirror=1))
    .with_atom(AtomCertificate(name="Zu", genus=2, v0=1, v0_mirror=1))
    .with_atom(AtomCertificate(name="Y2", v0_mirror=0))
)
_ONE_SIDED_PARTS = [Atom(n) for n in ("Z", "Z3", "Zu", "Y2", "O", "T(2,3)", "T(2,5)")] + [WH, Cable(2, 1, Atom("Z"))]


class TestOneSidedCombination:
    """The closed form of the last rule against running both one-sided verdicts."""

    def test_matches_both_verdicts(self):
        # every part and every pair of parts, then random triples
        rng = random.Random("one-sided")
        pool = _ONE_SIDED_PARTS + [Mirror(p) for p in _ONE_SIDED_PARTS]
        cases = pool + [Sum((a, b)) for i, a in enumerate(pool) for b in pool[i:]]
        cases += [Sum(tuple(rng.choice(pool) for _ in range(3))) for _ in range(100)]
        fired = set()
        for e in cases:
            got = obstruct_definite(e, Evaluator(ONE_SIDED_DB))
            assert got == obstruct_definite_by_verdicts(e, Evaluator(ONE_SIDED_DB)), e
            fired.update(r.rule for r in got.reasons)
        assert {RULE_A, RULE_B, RULE_COMBINED} <= fired


class TestComposite:
    def test_whitehead_example(self):
        r = composite_cable_obstruction(Sum((WH, WH, WH)), WH, 4, Evaluator())
        assert all_certified(r)
        assert r.verdict.obstructed
        assert r.expression == kn(1)

    def test_equal_invariants_fail(self):
        t = torus_atom(2, 3)
        r = composite_cable_obstruction(t, t, 2, Evaluator())
        assert not all_certified(r)
        failed = [h.name for h in r.hypotheses if not h.certified]
        assert "V0(K) > V0(J)" in failed
        assert not r.verdict.obstructed

    def test_torus_example(self):
        r = composite_cable_obstruction(torus_atom(2, 7), torus_atom(2, 3), 4, Evaluator())
        assert all_certified(r)  # V0: 2 > 1, tau: 3 < 4
        assert r.verdict.obstructed

    def test_n_too_small_fails(self):
        r = composite_cable_obstruction(torus_atom(2, 7), torus_atom(2, 3), 3, Evaluator())
        assert not all_certified(r)  # tau(K) = 3 is not < 3*1

    def test_n_validation(self):
        with pytest.raises(ValueError):
            composite_cable_obstruction(WH, WH, 0, Evaluator())

    def test_n_past_size_limit(self):
        # J without data counts genus 0, so n itself is limited
        db = default_db().with_atom(AtomCertificate(name="Y"))
        for n in (MAX_GENUS + 1, 10**400):
            with pytest.raises(SizeLimitError):
                composite_cable_obstruction(torus_atom(2, 7), Atom("Y"), n, Evaluator(db))

    def test_unbounded_tau_J_evidence(self):
        db = default_db().with_atom(AtomCertificate(name="Y"))
        r = composite_cable_obstruction(torus_atom(2, 7), Atom("Y"), MAX_GENUS, Evaluator(db))
        check = r.hypotheses[3]
        assert not check.certified
        assert check.evidence == {"tau_K": Interval.exact(3), "n_tau_J": Interval(-inf, inf)}
        # an unbounded end is an interval end, which the JSON edge writes as null
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _print_json(check.evidence)
        assert json.loads(out.getvalue()) == {
            "tau_K": {"lo": 3, "hi": 3},
            "n_tau_J": {"lo": None, "hi": None},
        }


class TestKinkiness:
    def test_unknot(self):
        kb = kinkiness_bounds(UNKNOT, Evaluator())
        assert (kb.k_plus_lo, kb.k_minus_lo) == (0, 0)

    def test_trefoil(self):
        assert kinkiness_bounds(torus_atom(2, 3), Evaluator()).k_plus_lo >= 1

    def test_kkl_family(self):
        for k in range(1, 6):
            for l in range(1, 6):
                parts = tuple([WH] * (2 * k + 1)) + (
                    Mirror(Cable(l + 2 * k + 1, 1, WH)),
                )
                kb = kinkiness_bounds(Sum(parts), Evaluator())
                assert kb.k_plus_lo >= k
                assert kb.k_minus_lo >= l

    @settings(max_examples=200, deadline=None)
    @given(e=expressions_any_cable(names=ATOM_NAMES + ["G", "H"]))
    def test_nu_plus_holds_tau(self, degraded_db, e):
        # the bounds read nu+ alone: nu+ of the knot and of its mirror
        # already hold tau.lo and -tau.hi, as tau(K*) = -tau(K) exactly;
        # checked with interval-valued atoms, full and degraded
        for base in (default_db(), degraded_db):
            ev = Evaluator(base.with_atom(_G).with_atom(_H))
            kb = kinkiness_bounds(e, ev)
            t, mirrored = ev.tau(e), ev.tau(Mirror(e))
            assert (mirrored.lo, mirrored.hi) == (-t.hi, -t.lo)
            old = (max(0, ev.nu_plus(e).lo, t.lo), max(0, ev.nu_plus(Mirror(e)).lo, -t.hi))
            assert (kb.k_plus_lo, kb.k_minus_lo) == old


# registry atoms whose invariants are intervals
_G = AtomCertificate(name="G", genus=2)
_H = AtomCertificate(name="H", tau=1, genus=3, v0=1)
