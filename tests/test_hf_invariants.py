"""Correction-term calculus: intervals, V-sequences, tau, nu+, d1, lens/surgery d."""

import random
from dataclasses import asdict
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defslice import obstructions
from defslice.certificates import AtomCertificate, default_db
from defslice.cli import _json_value
from defslice.hf_invariants import (
    ContradictionError,
    Evaluator,
    IntInterval,
    _close,
    _torus_vseq,
    d1,
    genus_bound,
    lens_d,
    nu_plus,
    surgery_d,
    tau,
    v_seq,
    wu_phi,
)
from defslice.knotexpr import (
    Atom,
    Cable,
    CableSignError,
    Mirror,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    alexander,
    mirror,
    normalize,
    parse,
    torus_atom,
)
from defslice.laurent import LaurentPoly, torus_alexander

from oracles import (
    AllSplitsEvaluator,
    CappedEvaluator,
    FlagEvaluator,
    NoneInterval,
    PartitionEvaluator,
    ZeroFromVSeq,
    close_iterated,
    torsion_coefficient,
    torsion_coefficients,
)
from strategies import expressions, expressions_any_cable

WH = Atom(WHITEHEAD_TREFOIL)


class TestIntInterval:
    def test_add_neg(self):
        a = IntInterval(1, 3)
        b = IntInterval(-2, inf)
        assert a + b == IntInterval(-1, inf)
        assert -a == IntInterval(-3, -1)
        assert -b == IntInterval(-inf, 2)

    def test_intersect(self):
        assert IntInterval(0, 5).intersect(IntInterval(3, inf)) == IntInterval(3, 5)
        with pytest.raises(ContradictionError):
            IntInterval(0, 1).intersect(IntInterval(3, 4))

    def test_max_with(self):
        assert IntInterval(0, 2).max_with(IntInterval(1, inf)) == IntInterval(1, inf)
        assert IntInterval.exact(1).max_with(IntInterval.exact(0)) == IntInterval.exact(1)


def _none_intervals():
    ends = st.one_of(st.none(), st.integers(-6, 6), st.integers(-(10**300), 10**300))
    return st.tuples(ends, ends).map(
        lambda t: NoneInterval(*t) if None in t or t[0] <= t[1] else NoneInterval(t[1], t[0])
    )


def _outcome(op, *args):
    try:
        return op(*args)
    except ContradictionError:
        return ContradictionError


class TestAgainstNoneEnds:
    """Intervals with -inf/inf ends against the None-ended operations."""

    @settings(max_examples=500, deadline=None)
    @given(_none_intervals(), _none_intervals(), st.integers(-8, 8))
    def test_operations(self, a, b, v):
        x, y = a.as_inf(), b.as_inf()
        for op in (lambda p, q: p + q, lambda p, q: p.intersect(q), lambda p, q: p.max_with(q)):
            want = _outcome(op, a, b)
            got = _outcome(op, x, y)
            assert got == (want if want is ContradictionError else want.as_inf())
        assert -x == (-a).as_inf()
        assert str(x) == str(a)
        assert x.is_exact == a.is_exact
        assert x.contains(v) == a.contains(v)
        for end in (x.lo, x.hi):
            assert type(end) is int or end in (-inf, inf)

    @settings(max_examples=300, deadline=None)
    @given(_none_intervals())
    def test_json_form(self, a):
        # JSON spells an infinite end as the None of the old spelling
        assert _json_value(a.as_inf()) == asdict(a)


class TestTorsionCoefficients:
    def test_trefoil(self):
        assert torsion_coefficients(torus_alexander(2, 3), 0) == 1

    def test_t27(self):
        # consistent with the closed form ceil(3/2) = 2
        assert torsion_coefficients(torus_alexander(2, 7), 0) == 2

    def test_trivial_polynomial(self):
        for j in range(5):
            assert torsion_coefficients(LaurentPoly.one(), j) == 0

    def test_vanishes_past_top_degree(self):
        assert torsion_coefficients(torus_alexander(2, 5), 2) == 0

    def test_closed_form_sweep(self):
        for k in range(1, 51):
            assert torsion_coefficients(torus_alexander(2, 2 * k + 1), 0) == (k + 1) // 2


class TestWuPhi:
    def test_q1_always_zero(self):
        for p in range(1, 10):
            for i in range(p // 2 + 1):
                assert wu_phi(p, 1, i) == 0

    def test_value(self):
        assert wu_phi(2, 3, 0) == 2  # 0 - 1 = -1 = 2 mod 3

    def test_boundary_allowed(self):
        assert wu_phi(3, 2, 3) == 0  # i = pq/2 exactly

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            wu_phi(3, 2, 4)
        with pytest.raises(ValueError):
            wu_phi(3, 2, -1)


class TestLensD:
    def test_pinned_identities(self):
        assert 4 * lens_d(2, 1, 0) == 1
        for n in range(1, 101):
            assert 4 * lens_d(2 * n, 1, n) == -1
            assert 4 * lens_d(2 * n + 2, 1, n) == 1 - Fraction(2 * n, n + 1)

    def test_one_surgery_is_s3(self):
        assert lens_d(1, 1, 0) == 0

    def test_rp3(self):
        assert lens_d(2, 1, 0) == Fraction(1, 4)
        assert lens_d(2, 1, 1) == Fraction(-1, 4)

    def test_homeomorphic_lens_spaces_match(self):
        # 2/3-surgery gives the same lens space as 2/1-surgery
        assert sorted(lens_d(2, 3, i) for i in range(2)) == sorted(
            lens_d(2, 1, i) for i in range(2)
        )

    def test_orientation_reversal_pair(self):
        # L(3,2) is L(3,1) with reversed orientation: d-multisets negate
        m32 = sorted(lens_d(3, 2, i) for i in range(3))
        m31 = sorted(-lens_d(3, 1, i) for i in range(3))
        assert m32 == m31

    def test_integer_surgery_closed_form(self):
        # d(S^3_p(O), i) = ((2i - p)^2 - p) / (4p), the standard closed form
        for p in range(1, 41):
            for i in range(p):
                assert lens_d(p, 1, i) == Fraction((2 * i - p) ** 2 - p, 4 * p)

    def test_validation(self):
        with pytest.raises(ValueError):
            lens_d(4, 2, 0)
        with pytest.raises(ValueError):
            lens_d(3, 1, 3)


class TestVSeq:
    def test_t27_exact(self):
        s = v_seq(torus_atom(2, 7))
        assert [s.at(k) for k in range(4)] == [
            IntInterval.exact(2),
            IntInterval.exact(1),
            IntInterval.exact(1),
            IntInterval.exact(0),
        ]
        assert s.at(100) == IntInterval.exact(0)

    def test_unknot(self):
        s = v_seq(UNKNOT)
        assert s.at(0) == IntInterval.exact(0)
        assert s.at(100) == IntInterval.exact(0)

    def test_cable_q1_rule(self):
        # V_i(K_{p,1}) = V_0(K) for 0 <= i <= p/2
        s = v_seq(Cable(5, 1, WH))
        for i in range(3):
            assert s.at(i) == IntInterval.exact(1)

    def test_kn_lower_bound(self):
        for n in range(1, 6):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            assert v_seq(e).at(0).lo >= 1

    def test_wu_vs_torsion_on_cabled_trefoil(self):
        cable = Cable(2, 3, torus_atom(2, 3))
        wu_value = v_seq(cable).at(0)
        assert wu_value.is_exact and wu_value.value == 1
        assert torsion_coefficients(alexander(cable), 0) == 1

    def test_whitehead_sum_reduction(self):
        s = v_seq(Sum((WH, WH, WH)))
        assert s.at(0) == IntInterval.exact(2)

    def test_negative_cable_rejected(self):
        with pytest.raises(CableSignError):
            v_seq(Cable(3, -2, torus_atom(2, 3)))
        with pytest.raises(CableSignError):
            v_seq(Sum((WH, Mirror(Cable(3, -2, torus_atom(2, 3))))))

    def test_closure_is_fixed_point(self):
        for text in ["T(2,7)", "T(2,3) # T(2,5)*", "cable(2,3,T(2,3)) # Wh(T(2,3))"]:
            s = v_seq(parse(text))
            assert _close(list(s.entries), inf) == s

    def test_missing_data_gives_wide_interval(self, degraded_db):
        # the substitution axiom still pins V_0 of the Whitehead atom itself,
        # so the data-free case is its mirror: wide interval, never an error
        s = v_seq(Mirror(WH), degraded_db)
        assert s.at(0).lo == 0 and s.at(0).hi == 1  # genus tail still caps it
        s2 = v_seq(WH, degraded_db)
        assert s2.at(0) == IntInterval.exact(1)


def _lspace_cable_qs(p, g, count):
    """The first count q >= p(2g - 1) coprime to p: for an L-space knot K of
    genus g, K_{p,q} is then an L-space knot (Hedden 2009; Hom 2011)."""
    qs = []
    q = p * (2 * g - 1)
    while len(qs) < count:
        if gcd(p, q) == 1:
            qs.append(q)
        q += 1
    return qs


class TestLSpaceCableOracle:
    """Wu's cabling formula against a source it does not use: an L-space
    cable's V_j are the torsion coefficients of its Alexander polynomial
    Delta_K(t^p) * Delta_{T(p,q)}(t)."""

    def test_every_v_matches_torsion(self):
        ev = Evaluator()
        cables = []
        for a, b in [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]:
            g = (a - 1) * (b - 1) // 2
            for p in range(2, 6):
                for q in _lspace_cable_qs(p, g, 2):
                    cables.append((Cable(p, q, torus_atom(a, b)), p * g + (p - 1) * (q - 1) // 2))
        for inner, g in cables[:16:3]:  # nested: cables of L-space cables
            for p in (2, 3):
                for q in _lspace_cable_qs(p, g, 1):
                    cables.append((Cable(p, q, inner), p * g + (p - 1) * (q - 1) // 2))
        assert len(cables) == 52
        for cable, g in cables:
            alex = alexander(cable)
            assert alex.degree == g
            s = ev.v_seq(cable)
            for j in range(g + 2):
                assert s.at(j) == IntInterval.exact(torsion_coefficient(alex, j)), (cable, j)


class TestTorusGapCount:
    """The torsion path against the semigroup S = <p, q>, with no Alexander
    polynomial: V_k(T(p,q)) = #{n not in S : n >= g + k} (Borodzik and
    Livingston, Heegaard Floer homology and rational cuspidal curves)."""

    def test_every_torus_knot_to_genus_60(self):
        pairs = [
            (p, q)
            for p in range(2, 122)
            for q in range(p + 1, 122)
            if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 120
        ]
        assert len(pairs) == 172
        for p, q in pairs:
            g = (p - 1) * (q - 1) // 2
            # every gap of S lies below 2g
            semigroup = {a * p + b * q for a in range(2 * g // p + 1) for b in range(2 * g // q + 1)}
            gaps = [n for n in range(2 * g) if n not in semigroup]
            assert len(gaps) == g
            s = _torus_vseq(p, q)
            for k in range(g + 2):
                want = sum(1 for n in gaps if n >= g + k)
                assert s.at(k) == IntInterval.exact(want), (p, q, k)


class TestClose:
    """One forward and one backward sweep against sweeping to a fixed point."""

    @staticmethod
    def _outcome(close, entries, genus):
        try:
            return close(entries, genus)
        except ContradictionError:
            return ContradictionError

    def test_matches_iterated_closure(self):
        rng = random.Random(184)
        outcomes = set()
        for _ in range(4000):
            entries = []
            for _ in range(rng.randrange(9)):
                lo, hi = (rng.randrange(-2, 9) for _ in "lh")
                if lo > hi:
                    lo, hi = hi, lo
                lo = -inf if rng.random() < 0.3 else lo
                entries.append(IntInterval(lo, inf if rng.random() < 0.3 else hi))
            genus = rng.choice([inf, rng.randrange(10)])
            got = self._outcome(_close, entries, genus)
            assert got == self._outcome(close_iterated, entries, genus), (entries, genus)
            outcomes.add(got is ContradictionError)
        assert outcomes == {False, True}


class TestTau:
    def test_kn_family(self):
        for n in range(1, 11):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            t = tau(e)
            assert t.is_exact and t.value == -n

    def test_mirror_trefoil(self):
        t = tau(Mirror(torus_atom(2, 3)))
        assert t == IntInterval.exact(-1)

    def test_kkl_family(self):
        for k, l in [(1, 1), (2, 3), (3, 2)]:
            parts = tuple([WH] * (2 * k + 1)) + (Mirror(Cable(l + 2 * k + 1, 1, WH)),)
            t = tau(Sum(parts))
            assert t.is_exact and t.value == -l

    def test_cable_of_lspace_knot(self):
        # cable rule: tau = p*tau + (p-1)(q-1)/2
        t = tau(Cable(2, 3, torus_atom(2, 3)))
        assert t == IntInterval.exact(3)

    def test_unflagged_cable_gets_interval(self):
        e = Cable(2, 3, Mirror(torus_atom(2, 3)))
        t = tau(e)
        assert not t.is_exact
        n = nu_plus(e)
        assert t.hi <= n.hi


# registry atoms with tau equal to the genus, of the knot (A2, B1) or of
# its mirror (N1), beside one with tau below it (Z2); none is an L-space atom
TAU_GENUS_DB = (
    default_db()
    .with_atom(AtomCertificate(name="A2", tau=2, genus=2, v0=1))
    .with_atom(AtomCertificate(name="B1", tau=1, genus=1))
    .with_atom(AtomCertificate(name="N1", tau=-1, genus=1, v0_mirror=1))
    .with_atom(AtomCertificate(name="Z2", tau=0, genus=2, v0=1, v0_mirror=1))
)
_TAU_GENUS_NAMES = ["T(2,3)", "T(3,4)", WHITEHEAD_TREFOIL, "A2", "B1", "N1", "Z2"]
_VERDICTS = [
    obstructions.obstruct_negative_definite,
    obstructions.obstruct_positive_definite,
    obstructions.obstruct_definite,
]


def _tau_results(ev, e):
    return ev.tau(e), ev.nu_plus(e), [v(e, ev) for v in _VERDICTS]


class TestCableTauRule:
    """The cable tau rule read from the data against the declared flag."""

    @settings(max_examples=300, deadline=None)
    @given(expressions())
    @example(Cable(2, 1, Mirror(torus_atom(2, 3))))
    @example(Cable(3, 2, Sum((WH, Mirror(Cable(2, 1, WH))))))
    def test_default_db_matches_flag(self, e):
        assert _tau_results(Evaluator(), e) == _tau_results(FlagEvaluator(), e)

    @settings(max_examples=300, deadline=None)
    @given(expressions(names=_TAU_GENUS_NAMES))
    @example(Cable(2, 5, Atom("A2")))
    @example(Sum((Cable(3, 1, Atom("A2")), Mirror(torus_atom(2, 3)))))
    @example(Cable(2, 3, Mirror(Atom("N1"))))
    def test_registry_only_narrows(self, e):
        t, n, verdicts = _tau_results(Evaluator(TAU_GENUS_DB), e)
        t0, n0, verdicts0 = _tau_results(FlagEvaluator(TAU_GENUS_DB), e)
        assert t0.lo <= t.lo and t.hi <= t0.hi
        assert n0.lo <= n.lo and n.hi <= n0.hi
        for v, v0 in zip(verdicts, verdicts0):
            assert v.obstructed or not v0.obstructed

    def test_registry_cable_is_exact(self):
        ev, old = Evaluator(TAU_GENUS_DB), FlagEvaluator(TAU_GENUS_DB)
        e = Cable(2, 5, Atom("A2"))
        assert ev.tau(e) == IntInterval.exact(6) and not old.tau(e).is_exact
        assert ev.nu_plus(e) == IntInterval.exact(6)
        # tau(N1*) = 1 = g, so its cable has tau = 2*1 + 1 = 3
        assert ev.tau(Cable(2, 3, Mirror(Atom("N1")))) == IntInterval.exact(3)
        # tau(Z2) = 0 < 2 = g proves nothing
        assert not ev.tau(Cable(2, 3, Atom("Z2"))).is_exact


class TestNuPlus:
    def test_t27(self):
        assert nu_plus(torus_atom(2, 7)) == IntInterval.exact(3)

    def test_unknot(self):
        assert nu_plus(UNKNOT) == IntInterval.exact(0)

    def test_kkl_lower_bound(self):
        for k, l in [(1, 1), (2, 2), (3, 1)]:
            parts = tuple([WH] * (2 * k + 1)) + (Mirror(Cable(l + 2 * k + 1, 1, WH)),)
            assert nu_plus(Sum(parts)).lo >= k


class TestD1:
    def test_unknot(self):
        assert d1(UNKNOT) == IntInterval.exact(0)

    def test_trefoil(self):
        assert d1(torus_atom(2, 3)) == IntInterval.exact(-2)

    def test_kn_nonzero(self):
        for n in range(1, 6):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            assert d1(e).hi <= -2

    def test_always_nonpositive_and_even_when_exact(self):
        for text in ["O", "T(2,3)", "T(3,4)", "T(2,7)"]:
            v = d1(parse(text))
            assert v.hi <= 0
            if v.is_exact:
                assert v.value % 2 == 0


class TestSurgeryD:
    def test_one_surgery_recovers_d1(self):
        for q in range(3, 23, 2):
            e = torus_atom(2, q)
            d = surgery_d(e, 1, 1, 0)
            assert d.is_exact
            assert d.value == d1(e).value

    def test_unknot_gives_lens_values(self):
        for p, q in [(2, 1), (3, 1), (5, 2), (2, 3)]:
            for i in range(p):
                d = surgery_d(UNKNOT, p, q, i)
                assert d.is_exact and d.value == lens_d(p, q, i)

    def test_two_surgery_on_trefoil(self):
        d = surgery_d(torus_atom(2, 3), 2, 1, 0)
        assert d.is_exact and d.value == Fraction(-7, 4)

    def test_q_greater_than_one(self):
        vals = [surgery_d(torus_atom(2, 3), 2, 3, i) for i in range(2)]
        assert [v.value for v in vals] == [Fraction(-7, 4), Fraction(-9, 4)]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "r, s", [(r, s) for r in range(2, 6) for s in range(r + 1, 14) if gcd(r, s) == 1]
    )
    def test_moser_lens_surgeries(self, r, s, sign):
        # (rs +- 1)-surgery on T(r,s) is the lens space L(n, s^2) (Moser,
        # Elementary surgery along a torus knot, 1971), so the Ni-Wu terms
        # from the V-sequence and the lens recursion give one multiset of d
        n = r * s + sign
        ev = Evaluator()
        ds = [ev.surgery_d(torus_atom(r, s), n, 1, i) for i in range(n)]
        assert all(d.is_exact for d in ds)
        assert sorted(d.value for d in ds) == sorted(lens_d(n, s * s % n, j) for j in range(n))

    def test_interval_output_for_uncertified_knot(self, degraded_db):
        d = surgery_d(Mirror(WH), 1, 1, 0, degraded_db)
        assert not d.is_exact
        assert d.hi == 0 and d.lo == -2  # genus 1 still bounds V_0 <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            surgery_d(UNKNOT, 2, 1, 2)
        with pytest.raises(ValueError):
            surgery_d(UNKNOT, 4, 2, 0)


def _invariants(ev, e):
    return ev.v_seq(e), ev.tau(e), ev.nu_plus(e), ev.d1(e)


# genus-less registry atoms: their sums have no genus bound, so the fold
# runs on the prefix that the summands' prefixes add up to; "G" has an
# unbounded V_0 of its mirror and "H" an unbounded V_0 of its own, and "G0"
# has V_0 = 0, so its fold window is 0 without a genus bound
GENUSLESS_DB = (
    default_db()
    .with_atom(AtomCertificate(name="G", tau=2, v0=2))
    .with_atom(AtomCertificate(name="H", tau=-1, v0_mirror=1))
    .with_atom(AtomCertificate(name="G0", tau=0, v0=0))
)
# one summand with a large V_0 beside small ones, so the lower bound is
# often positive and the best single summand varies
_LARGE = [torus_atom(2, 41), torus_atom(2, 21), torus_atom(4, 5), Cable(3, 4, WH)]
_SMALL = [Atom(n) for n in ("O", "T(2,3)", "T(2,5)", "T(3,4)")] + [
    WH,
    Cable(2, 1, WH),
    Cable(2, 3, torus_atom(2, 3)),
]


class TestSumLowerV0:
    """The one-summand V_0 lower bound against the 3^r partition search."""

    @pytest.mark.parametrize("which", ["db", "degraded_db", "genusless"])
    def test_matches_partition_search(self, request, which):
        if which == "genusless":
            base, small = GENUSLESS_DB, _SMALL + [Atom("G"), Atom("H")]
        else:
            base, small = request.getfixturevalue(which), _SMALL
        small = small + [Mirror(p) for p in small]
        rng = random.Random(which)
        for _ in range(40):
            parts = [rng.choice(_LARGE)] + [rng.choice(small) for _ in range(rng.randint(1, 7))]
            rng.shuffle(parts)
            e = normalize(Sum(tuple(parts)))
            fast, ref = Evaluator(base), PartitionEvaluator(base)
            for k in (e, mirror(e)):
                assert _invariants(fast, k) == _invariants(ref, k), k

    def test_one_summand_with_unbounded_mirror(self):
        # G and H* have an unbounded V_0 of their mirrors, so theirs is the
        # only finite term of the bound, and beside small summands it is
        # positive
        small = [UNKNOT, torus_atom(2, 3), Mirror(torus_atom(2, 3)), Mirror(torus_atom(2, 5))]
        positive = 0
        for lone in (Atom("G"), Mirror(Atom("H"))):
            for rest in [(a,) for a in small] + [(a, b) for a in small for b in small]:
                e = normalize(Sum((lone,) + rest))
                fast, ref = Evaluator(GENUSLESS_DB), PartitionEvaluator(GENUSLESS_DB)
                for k in (e, mirror(e)):
                    assert _invariants(fast, k) == _invariants(ref, k), k
                positive += fast.v_seq(e).at(0).lo > 0
        assert positive

    def test_twenty_summands_exact(self):
        # 19 distinct slice atoms (tau = V_0 = V_0 of the mirror = 0) beside
        # T(2,41): the single summand T(2,41) pins V_0 = 10 exactly
        base = default_db()
        for i in range(1, 20):
            base = base.with_atom(AtomCertificate(name=f"S{i}", tau=0, genus=1, v0=0, v0_mirror=0))
        e = Sum((torus_atom(2, 41),) + tuple(Atom(f"S{i}") for i in range(1, 20)))
        assert v_seq(e, base).at(0) == IntInterval.exact(10)


# summands whose V-sequences have wide windows (genus bound 6 to 20, or
# none) beside narrow ones (genus 0 to 4), so the windowed fold meets both
_WIDE = _LARGE + [torus_atom(3, 7), Cable(2, 5, torus_atom(2, 3))]
_GENUSLESS_PARTS = [Atom("G"), Atom("H"), Atom("G0"), Cable(2, 1, Atom("G")), Cable(3, 2, Atom("H"))]


class TestSumFold:
    """The windowed min-plus sum fold against the fold over every split."""

    @pytest.mark.parametrize("which", ["db", "degraded_db", "genusless"])
    def test_matches_all_splits(self, request, which):
        if which == "genusless":
            base, pool = GENUSLESS_DB, _WIDE + _SMALL + _GENUSLESS_PARTS
        else:
            base, pool = request.getfixturevalue(which), _WIDE + _SMALL
        pool = pool + [Mirror(p) for p in pool]
        rng = random.Random(f"fold-{which}")
        for _ in range(120):
            parts = []
            for _ in range(rng.randint(2, 6)):
                parts += [rng.choice(pool)] * rng.choice((1, 1, 2, 3))
            rng.shuffle(parts)
            e = normalize(Sum(tuple(parts)))
            fast, ref = Evaluator(base), AllSplitsEvaluator(base)
            for k in (e, mirror(e)):
                assert _invariants(fast, k) == _invariants(ref, k), k

    def test_many_repeated_summands(self):
        e = parse("24*T(2,9) # 3*T(3,4)* # Wh(T(2,3))")
        assert _invariants(Evaluator(), e) == _invariants(AllSplitsEvaluator(), e)

    def test_genusless_inside_the_capped_prefix(self):
        # without a genus bound the prefix is as long as the summands'
        # prefixes added up, where it was at most 64 entries: every value
        # lies inside the capped one, equals it when the prefixes add up to
        # at most 64 entries, and no verdict is lost
        long = [torus_atom(2, 131), torus_atom(2, 101), Cable(2, 67, Atom("G")), Cable(3, 23, Atom("H"))]
        long = long + [Mirror(p) for p in long]
        pool = _WIDE + _SMALL + _GENUSLESS_PARTS
        pool = pool + [Mirror(p) for p in pool]
        rng = random.Random("capped")
        short = wide = tighter = 0
        for i in range(120):
            parts = [rng.choice(_GENUSLESS_PARTS)] + [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            parts += [rng.choice(long)] * (i % 2)
            rng.shuffle(parts)
            e = normalize(Sum(tuple(parts)))
            fast, ref = Evaluator(GENUSLESS_DB), CappedEvaluator(GENUSLESS_DB)
            for k in (e, mirror(e)):
                prefix = sum(len(fast._vseq_of(p).entries) for p in k.parts)
                if prefix <= 64:
                    short += 1
                    assert _invariants(fast, k) == _invariants(ref, k), k
                    continue
                s, r = fast.v_seq(k), ref.v_seq(k)
                for j in range(max(len(s.entries), len(r.entries)) + 3):
                    assert r.at(j).lo <= s.at(j).lo <= s.at(j).hi <= r.at(j).hi, (k, j)
                for rule in (Evaluator.tau, Evaluator.nu_plus, Evaluator.d1):
                    got, was = rule(fast, k), rule(ref, k)
                    assert was.lo <= got.lo <= got.hi <= was.hi, (k, rule)
                for target in ("negative_definite", "positive_definite", "definite"):
                    was = _ENTRIES[target](ref, k)
                    assert not was.obstructed or _ENTRIES[target](fast, k).obstructed, (k, target)
                wide += 1
                tighter += s != r
        assert short >= 40 and wide >= 40 and tighter >= 40, (short, wide, tighter)

    def test_genusless_tail_is_exact(self):
        # T(2,201) # G0 has no genus bound; its 102-entry prefix reaches
        # V_100 = 0, which the 64-entry prefix left at [0, 19]
        e = Sum((torus_atom(2, 201), Atom("G0")))
        assert nu_plus(e, GENUSLESS_DB) == IntInterval.exact(100)
        assert nu_plus(e, CappedEvaluator(GENUSLESS_DB)) == IntInterval(100, inf)
        assert v_seq(e, GENUSLESS_DB).at(100) == IntInterval.exact(0)


class TestTailRule:
    """VSeq's tail, read from its last entry, against the tail that the
    genus bound fixed when it was stored beside the entries."""

    @pytest.mark.parametrize("which", ["db", "degraded_db", "genusless"])
    def test_matches_zero_from_tail(self, request, which):
        if which == "genusless":
            base, pool = GENUSLESS_DB, _WIDE + _SMALL + _GENUSLESS_PARTS
        else:
            base, pool = request.getfixturevalue(which), _WIDE + _SMALL
        pool = pool + [Mirror(p) for p in pool]
        rng = random.Random(f"tail-{which}")
        for _ in range(150):
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            e = normalize(parts[0] if len(parts) == 1 else Sum(parts))
            ev = Evaluator(base)
            for k in (e, mirror(e)):
                s, g = ev.v_seq(k), ev.genus_bound(k)
                ref = ZeroFromVSeq(s.entries, None if g == inf else g)
                for j in range(len(s.entries) + 6):
                    assert s.at(j) == ref.at(j), (k, j)
                assert s.first_possible_zero() == ref.first_possible_zero(), k
                assert s.first_certain_zero() == ref.first_certain_zero(), k


# every public entry of a session, called as entry(evaluator, expression)
_ENTRIES = {
    "genus_bound": Evaluator.genus_bound,
    "v_seq": Evaluator.v_seq,
    "tau": Evaluator.tau,
    "nu_plus": Evaluator.nu_plus,
    "d1": Evaluator.d1,
    "surgery_d": lambda ev, e: [ev.surgery_d(e, 3, 1, i) for i in range(3)],
    "sigma": Evaluator.sigma,
    "alexander": Evaluator.alexander,
    "negative_definite": lambda ev, e: obstructions.obstruct_negative_definite(e, ev),
    "positive_definite": lambda ev, e: obstructions.obstruct_positive_definite(e, ev),
    "definite": lambda ev, e: obstructions.obstruct_definite(e, ev),
    "kinkiness": lambda ev, e: obstructions.kinkiness_bounds(e, ev),
}


def _entry_outcome(entry, e):
    """entry's result on e in a fresh session, or the type and message of
    the error it raises."""
    try:
        return entry(Evaluator(), e)
    except ValueError as exc:
        return type(exc), str(exc)


class TestNormalDoor:
    """A session reads a raw expression exactly as its normal form."""

    @settings(max_examples=300, deadline=None)
    @given(expressions_any_cable())
    @example(Mirror(Mirror(torus_atom(2, 5))))
    def test_raw_matches_normal(self, e):
        n = normalize(e)
        for name, entry in _ENTRIES.items():
            assert _entry_outcome(entry, e) == _entry_outcome(entry, n), name


class TestGenusBound:
    def test_values(self):
        assert genus_bound(torus_atom(2, 7)) == 3
        assert genus_bound(parse("(3*Wh(T(2,3))) # cable(4,1,Wh(T(2,3)))*")) == 7
        assert genus_bound(UNKNOT) == 0


class TestSoundnessProperties:
    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_vseq_nonneg_monotone_fixedpoint(self, e):
        s = v_seq(e)
        n = len(s.entries)
        for k in range(n):
            iv = s.at(k)
            assert iv.lo >= 0
            assert iv.lo <= iv.hi
        for k in range(n - 1):
            a, b = s.at(k), s.at(k + 1)
            assert b.lo >= a.lo - 1 and a.lo >= b.lo
            assert b.hi <= a.hi <= b.hi + 1
        assert _close(list(s.entries), inf) == s

    @settings(max_examples=300, deadline=None)
    @given(expressions(max_leaves=3), expressions(max_leaves=3))
    def test_tau_additive_where_exact(self, a, b):
        ta, tb = tau(a), tau(b)
        ts = tau(Sum((a, b)))
        if ta.is_exact and tb.is_exact:
            assert ts == IntInterval.exact(ta.value + tb.value)

    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_tau_mirror_antisymmetric(self, e):
        assert tau(Mirror(e)) == -tau(e)

    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_tau_lo_below_nu_hi(self, e):
        t = tau(e)
        n = nu_plus(e)
        assert t.lo <= n.hi

    @settings(max_examples=200, deadline=None)
    @given(e=expressions())
    def test_refinement_shrinks_intervals(self, db, degraded_db, e):
        full = Evaluator(db)
        wide = Evaluator(degraded_db)
        sf, sw = full.v_seq(e), wide.v_seq(e)
        for k in range(4):
            a, b = sf.at(k), sw.at(k)
            assert b.lo <= a.lo
            assert a.hi <= b.hi
        tf, tw = full.tau(e), wide.tau(e)
        assert tw.lo <= tf.lo
        assert tf.hi <= tw.hi
