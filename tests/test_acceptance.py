"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact arithmetic except the stated numeric signature
oracle (eigenvalue sign tolerance 1e-9).
"""

import random
from fractions import Fraction
from math import inf

from hypothesis import HealthCheck, given, settings

from defslice.cli import family_jk, family_kkl
from defslice.hf_invariants import Evaluator, IntInterval, _close, lens_d, surgery_d, v_seq
from defslice.knotexpr import (
    Atom,
    Cable,
    Mirror,
    Sum,
    WHITEHEAD_TREFOIL,
    alexander,
    normalize,
    topologically_slice_certified,
    torus_atom,
)
from defslice.obstructions import (
    RULE_A,
    RULE_C,
    kinkiness_bounds,
    obstruct_definite,
)
from defslice.qform_verify import bcg_cobordism_check
from defslice.signatures import sigma, sigma_torus, signature_combination_check
from defslice.hf_invariants import nu_plus, tau

from oracles import family_kn, numeric_signature, random_regular_angle, seifert_matrix_torus, torsion_coefficients
from strategies import expressions, expressions_any_cable

WH = Atom(WHITEHEAD_TREFOIL)

RANDOMIZED = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.function_scoped_fixture,
    ],
)


def _report(n, label):
    print(f"\n[acceptance] criterion {n} ({label}): PASS")


def test_criterion_1_v0_closed_form():
    """V_0(T(2,2k+1)) = ceil(k/2) for k = 1..50, exact."""
    for k in range(1, 51):
        v0 = v_seq(torus_atom(2, 2 * k + 1)).at(0)
        assert v0.is_exact and v0.value == (k + 1) // 2, k
    _report(1, "V_0(T(2,2k+1)) = ceil(k/2), k = 1..50")


def test_criterion_2_topologically_slice_family():
    """For n = 1..20: tau = -n, V_0 >= 1, topologically slice, obstructed
    in every definite 4-manifold via the d1/tau rule."""
    ev = Evaluator()
    for n in range(1, 21):
        e = family_kn(n)
        t = ev.tau(e)
        assert t.is_exact and t.value == -n, n
        assert ev.v_seq(e).at(0).lo >= 1, n
        assert topologically_slice_certified(e, ev), n
        verdict = obstruct_definite(e, ev)
        assert verdict.obstructed, n
        assert any(r.rule == RULE_A for r in verdict.reasons), n
    _report(2, "main family n = 1..20: tau = -n, slice + obstructed via rule (a)")


def test_criterion_3_kinkiness_family():
    """For 1 <= k, l <= 10: tau = -l, nu+ >= k, kinkiness k+ >= k, k- >= l."""
    ev = Evaluator()
    for k in range(1, 11):
        for l in range(1, 11):
            e = family_kkl(k, l)
            t = ev.tau(e)
            assert t.is_exact and t.value == -l, (k, l)
            assert ev.nu_plus(e).lo >= k, (k, l)
            kb = kinkiness_bounds(e, ev)
            assert kb.k_plus_lo >= k and kb.k_minus_lo >= l, (k, l)
    _report(3, "kinkiness family k,l = 1..10: tau = -l, nu+ >= k, k+/k- bounds")


def test_criterion_4_lens_identities():
    """4d(S3_2(O),0) = 1, 4d(S3_2n(O),n) = -1, 4d(S3_2n+2(O),n) = 1-2n/(n+1),
    exact for n = 1..100."""
    assert 4 * lens_d(2, 1, 0) == 1
    for n in range(1, 101):
        assert 4 * lens_d(2 * n, 1, n) == -1, n
        assert 4 * lens_d(2 * n + 2, 1, n) == 1 - Fraction(2 * n, n + 1), n
    _report(4, "lens-space identities, n = 1..100")


def test_criterion_5_one_surgery_consistency():
    """d(S3_1(K)) = -2 V_0(K) recovered from the general p/q formula for
    K = T(2,q), q = 3, 5, ..., 21."""
    for q in range(3, 23, 2):
        e = torus_atom(2, q)
        d = surgery_d(e, 1, 1, 0)
        k = (q - 1) // 2
        expected = -2 * ((k + 1) // 2)  # -2 * ceil(k/2)
        assert d.is_exact and d.value == expected, q
    _report(5, "d(S3_1(K)) = -2 V_0(K) for K = T(2,3..21)")


def test_criterion_6_wu_torsion_cross_validation():
    """V_0 of the (2,3)-cable of the trefoil agrees across Wu's formula and
    the cable Alexander torsion coefficient (both 1); V_i(K_{p,1}) = V_0(K)."""
    cable = Cable(2, 3, torus_atom(2, 3))
    wu = v_seq(cable).at(0)
    assert wu.is_exact and wu.value == 1
    assert torsion_coefficients(alexander(cable), 0) == 1
    for K in (torus_atom(2, 3), torus_atom(2, 5)):
        v0 = v_seq(K).at(0).value
        for p in range(2, 10):
            s = v_seq(Cable(p, 1, K))
            for i in range(p // 2 + 1):
                assert s.at(i) == IntInterval.exact(v0), (K, p, i)
    _report(6, "Wu cabling vs torsion coefficients; V_i(K_{p,1}) = V_0(K)")


def test_criterion_7_cobordism_replay():
    """All six exact checks pass for n = 1..50, including c1^2 = 2/(n+1)
    and sigma(W) = -1."""
    for n in range(1, 51):
        rep = bcg_cobordism_check(n)
        assert rep.passed, (n, [i.name for i in rep.items if not i.passed])
        assert rep.c1_sq == Fraction(2, n + 1), n
        assert rep.sigma_cobordism == -1, n
    _report(7, "connected-sum cobordism replay, n = 1..50")


def test_criterion_8_signature_family():
    """For k = 1..20: sigma = 2 at -1 and -2 on the low arc; obstructed via
    the signature rule; J_1..J_4 independent at level 3."""
    ev = Evaluator()
    for k in range(1, 21):
        e = family_jk(k)
        fn = sigma(e, ev)
        assert fn.at_minus_one() == 2, k
        q = 2 * k + 9
        for i in (1, 2, 3):
            x = Fraction(2 + i, 4 * q)
            assert Fraction(1, 2 * q) < x < Fraction(3, 2 * q)
            assert fn.value(x) == -2, (k, i)
        verdict = obstruct_definite(e, ev)
        assert verdict.obstructed and any(r.rule == RULE_C for r in verdict.reasons), k
    chk = signature_combination_check([family_jk(k) for k in (1, 2, 3, 4)], 3, ev)
    assert chk.independent
    _report(8, "signature family k = 1..20 + independence at level 3")


def test_criterion_9_signature_oracle():
    """Counting-formula signatures match the numeric Seifert-matrix oracle
    for T(2,q), q in {3,5,7,9}, at 100 random regular angles each."""
    rng = random.Random(1729)
    for q in (3, 5, 7, 9):
        fn = sigma_torus(2, q)
        V = seifert_matrix_torus(2, q)
        for _ in range(100):
            x = random_regular_angle(rng, fn)
            assert fn.value(x) == numeric_signature(V, x, tol=1e-9), (q, x)
    _report(9, "signature counting formula vs Seifert oracle, 100 angles each")


class TestCriterion10Properties:
    """Randomized property suites, >= 1000 cases each."""

    @RANDOMIZED
    @given(e=expressions())
    def test_10a_vseq_nonneg_monotone_fixedpoint(self, e):
        s = v_seq(e)
        for k in range(len(s.entries)):
            iv = s.at(k)
            assert iv.lo >= 0
        for k in range(len(s.entries) - 1):
            a, b = s.at(k), s.at(k + 1)
            assert a.lo >= b.lo >= a.lo - 1
            assert a.hi >= b.hi >= a.hi - 1
        assert _close(list(s.entries), inf) == s

    @RANDOMIZED
    @given(a=expressions(max_leaves=3), b=expressions(max_leaves=3))
    def test_10b_tau_additive_and_antisymmetric(self, a, b):
        ta, tb = tau(a), tau(b)
        if ta.is_exact and tb.is_exact:
            assert tau(Sum((a, b))) == IntInterval.exact(ta.value + tb.value)
        assert tau(Mirror(a)) == -ta

    @RANDOMIZED
    @given(e=expressions())
    def test_10c_tau_lo_at_most_nu_hi(self, e):
        t = tau(e)
        n = nu_plus(e)
        assert t.lo <= n.hi

    @RANDOMIZED
    @given(e=expressions_any_cable(max_leaves=6))
    def test_10d_normalize_idempotent(self, e):
        n = normalize(e)
        assert normalize(n) == n

    @RANDOMIZED
    @given(e=expressions(max_leaves=4))
    def test_10e_verdict_monotone_under_refinement(self, db, degraded_db, e):
        wide = obstruct_definite(e, Evaluator(degraded_db))
        if wide.obstructed:
            assert obstruct_definite(e, Evaluator(db)).obstructed

    def test_10_report(self):
        _report(10, "randomized property suites (1000 cases each)")
