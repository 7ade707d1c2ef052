"""Correction-term calculus: intervals, V-sequences, tau, nu+, d1, lens/surgery d."""

import random
from dataclasses import asdict
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defslice import obstructions
from defslice.certificates import AtomCertificate, default_db, nu_equiv_reduce
from defslice.cli import _json_value, family_jk, family_kkl
from defslice.hf_invariants import (
    ContradictionError,
    Evaluator,
    Interval,
    VSeq,
    _cert_vseq,
    _close,
    _lspace_vseq,
    lens_d,
    wu_phi,
)
from defslice.knotexpr import (
    Atom,
    Cable,
    Mirror,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    alexander,
    flip,
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
    IntersectingEvaluator,
    NoneInterval,
    PartitionEvaluator,
    WuCableEvaluator,
    ZeroFromVSeq,
    close_iterated,
    contains,
    fold_every_split,
    fold_skipping_dominated,
    torsion_coefficient,
    torsion_coefficients,
)
from strategies import ATOM_NAMES, expressions, expressions_any_cable

WH = Atom(WHITEHEAD_TREFOIL)


class TestIntInterval:
    """Interval with int ends."""

    def test_add_neg(self):
        a = Interval(1, 3)
        b = Interval(-2, inf)
        assert a + b == Interval(-1, inf)
        assert -a == Interval(-3, -1)
        assert -b == Interval(-inf, 2)

    def test_intersect(self):
        assert Interval(0, 5).intersect(Interval(3, inf)) == Interval(3, 5)
        with pytest.raises(ContradictionError):
            Interval(0, 1).intersect(Interval(3, 4))

    def test_max_with(self):
        assert Interval(0, 2).max_with(Interval(1, inf)) == Interval(1, inf)
        assert Interval.exact(1).max_with(Interval.exact(0)) == Interval.exact(1)


class TestFractionInterval:
    """Interval with Fraction ends, as the surgery terms take: refused when
    empty, like an interval of ints."""

    def test_empty_refused(self):
        with pytest.raises(ContradictionError, match=r"^empty interval \[1/2, 1/3\]$"):
            Interval(Fraction(1, 2), Fraction(1, 3))

    def test_operations(self):
        a = Interval(Fraction(-7, 4), Fraction(1, 4))
        assert a + Interval.exact(Fraction(1, 2)) == Interval(Fraction(-5, 4), Fraction(3, 4))
        assert -a == Interval(Fraction(-1, 4), Fraction(7, 4))
        assert str(a) == "[-7/4, 1/4]" and str(Interval.exact(Fraction(-7, 4))) == "-7/4"

    def test_surgery_d_is_an_interval(self, degraded_db):
        exact = Evaluator().surgery_d(torus_atom(2, 3), 2, 3, 0)
        wide = Evaluator(degraded_db).surgery_d(Mirror(WH), 1, 1, 0)
        assert exact == Interval.exact(Fraction(-7, 4))
        assert type(wide) is Interval and wide == Interval(-2, 0)


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


def _outcome_text(op, *args):
    # op(*args), or the message of the ContradictionError it raises
    try:
        return op(*args)
    except ContradictionError as exc:
        return str(exc)


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
        assert contains(x, v) == a.contains(v)
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
        s = Evaluator().v_seq(torus_atom(2, 7))
        assert [s.at(k) for k in range(4)] == [
            Interval.exact(2),
            Interval.exact(1),
            Interval.exact(1),
            Interval.exact(0),
        ]
        assert s.at(100) == Interval.exact(0)

    def test_unknot(self):
        s = Evaluator().v_seq(UNKNOT)
        assert s.at(0) == Interval.exact(0)
        assert s.at(100) == Interval.exact(0)

    def test_cable_q1_rule(self):
        # V_i(K_{p,1}) = V_0(K) for 0 <= i <= p/2
        s = Evaluator().v_seq(Cable(5, 1, WH))
        for i in range(3):
            assert s.at(i) == Interval.exact(1)

    def test_kn_lower_bound(self):
        for n in range(1, 6):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            assert Evaluator().v_seq(e).at(0).lo >= 1

    def test_wu_vs_torsion_on_cabled_trefoil(self):
        cable = Cable(2, 3, torus_atom(2, 3))
        wu_value = Evaluator().v_seq(cable).at(0)
        assert wu_value.is_exact and wu_value.value == 1
        assert torsion_coefficients(alexander(cable), 0) == 1

    def test_whitehead_sum_reduction(self):
        s = Evaluator().v_seq(Sum((WH, WH, WH)))
        assert s.at(0) == Interval.exact(2)

    def test_negative_cable_is_mirrored(self):
        # (K_{p,q})* = (K*)_{p,-q}: a cable with q < 0 is the mirror of the
        # positive cable of the mirrored companion, for every invariant
        t = torus_atom(2, 3)
        pairs = [
            (Cable(3, -2, t), Mirror(Cable(3, 2, Mirror(t)))),
            (Sum((WH, Mirror(Cable(3, -2, t)))), Sum((WH, Cable(3, 2, Mirror(t))))),
            (Cable(2, -1, Cable(3, -2, WH)), Mirror(Cable(2, 1, Cable(3, 2, Mirror(WH))))),
        ]
        for neg, pos in pairs:
            for rule in ("v_seq", "tau", "nu_plus", "d1", "genus_bound"):
                assert getattr(Evaluator(), rule)(neg) == getattr(Evaluator(), rule)(pos)

    def test_closure_is_fixed_point(self):
        for text in ["T(2,7)", "T(2,3) # T(2,5)*", "cable(2,3,T(2,3)) # Wh(T(2,3))"]:
            s = Evaluator().v_seq(parse(text))
            assert _close(s.lo, s.hi, inf) == s

    def test_missing_data_gives_wide_interval(self, degraded_db):
        # the substitution axiom still pins V_0 of the Whitehead atom itself,
        # so the data-free case is its mirror: wide interval, never an error
        s = Evaluator(degraded_db).v_seq(Mirror(WH))
        assert s.at(0).lo == 0 and s.at(0).hi == 1  # genus tail still caps it
        s2 = Evaluator(degraded_db).v_seq(WH)
        assert s2.at(0) == Interval.exact(1)


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
                assert s.at(j) == Interval.exact(torsion_coefficient(alex, j)), (cable, j)


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
        ev = Evaluator()
        for p, q in pairs:
            g = (p - 1) * (q - 1) // 2
            # every gap of S lies below 2g
            semigroup = {a * p + b * q for a in range(2 * g // p + 1) for b in range(2 * g // q + 1)}
            gaps = [n for n in range(2 * g) if n not in semigroup]
            assert len(gaps) == g
            s = ev.v_seq(torus_atom(p, q))
            for k in range(g + 2):
                want = sum(1 for n in gaps if n >= g + k)
                assert s.at(k) == Interval.exact(want), (p, q, k)


class TestClose:
    """One forward and one backward sweep against sweeping to a fixed point."""

    @staticmethod
    def _outcome(close, los, his, genus):
        try:
            return close(los, his, genus)
        except ContradictionError as exc:
            return str(exc)

    def test_matches_iterated_closure(self):
        rng = random.Random(184)
        outcomes = set()
        for _ in range(4000):
            los, his = [], []
            for _ in range(rng.randrange(9)):
                lo, hi = (rng.randrange(-2, 9) for _ in "lh")
                if lo > hi:
                    lo, hi = hi, lo
                los.append(-inf if rng.random() < 0.3 else lo)
                his.append(inf if rng.random() < 0.3 else hi)
            genus = rng.choice([inf, rng.randrange(10)])
            got = self._outcome(_close, los, his, genus)
            assert got == self._outcome(close_iterated, los, his, genus), (los, his, genus)
            outcomes.add("closed" if isinstance(got, VSeq) else got.split()[-1])
        # a closed sequence, a bound against the zero tail, and bounds
        # that cross each other
        assert outcomes == {"closed", "zero", "inconsistent"}


_GENERA = [*range(31), inf]


def _v0s(g):
    # no v0, and every v0 in 0..g (in 0..30 without a genus bound)
    return [None, *range((30 if g == inf else g) + 1)]


class TestClosedBuilders:
    """The V-sequences built closed against _close of the same bounds: a
    certificate's V_0 under its genus bound, an L-space atom's torsion
    coefficients, and a sum's fold, for every genus bound g in 0..30 or
    none and every v0 in 0..g or none."""

    @pytest.mark.parametrize("g", _GENERA)
    def test_cert_vseq(self, g):
        for v0 in _v0s(g):
            bounds = ([0], [inf]) if v0 is None else ([v0], [v0])
            assert _cert_vseq(v0, g) == _close(*bounds, g), (v0, g)

    def test_lspace_vseq(self):
        # the unknot and every torus knot of genus up to 30
        polys = [(LaurentPoly.one(), 0)]
        for p in range(2, 62):
            for q in range(p + 1, 62):
                g = (p - 1) * (q - 1) // 2
                if gcd(p, q) == 1 and g <= 30:
                    polys.append((torus_alexander(p, q), g))
        assert {g for _, g in polys} >= {0, 1, 2, 3, 30}
        for alex, g in polys:
            t = [torsion_coefficients(alex, j) for j in range(g)]
            assert _lspace_vseq(alex) == _close(t, t, g), (alex, g)

    @pytest.mark.parametrize("g", _GENERA)
    def test_vseq_sum(self, g):
        # an atom of genus bound g (none for inf) and each v0, in sums with
        # itself, its mirror, a torus knot and a mirrored one;
        # fold_skipping_dominated hands _close the fold's bounds
        db, atoms = default_db(), []
        for v0 in _v0s(g):
            a = Atom(f"A{v0}")
            db = db.with_atom(AtomCertificate(name=a.name, genus=None if g == inf else g, v0=v0))
            atoms.append(a)
        ev = Evaluator(db)
        t23, t25 = torus_atom(2, 3), torus_atom(2, 5)
        for a in atoms:
            for parts in ((a, a), (a, Mirror(a)), (a, t23), (Mirror(a), t25), (a, a, Mirror(t25))):
                e = Sum(parts)
                assert _outcome_text(ev._vseq_sum, e) == _outcome_text(fold_skipping_dominated, ev, e), e

    def test_vseq_sum_lower_bound_within_upper(self):
        # _vseq_sum takes lo_0 from _sum_lower_v0 with no check against
        # hi_0, as its docstring proves lo_0 <= hi_0; the sums of _LARGE
        # and _SMALL and their mirrors
        ev = Evaluator()
        for a in _LARGE + _SMALL:
            for b in _SMALL:
                e = normalize(Sum((a, b)))
                if isinstance(e, Sum):
                    _assert_lower_within_upper(ev, e)
                    _assert_lower_within_upper(ev, flip(e))

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_vseq_sum_lower_bound_past_upper(self, extra):
        # a V_0 lower bound raised as far as it can go short of passing the
        # fold's hi_0, to hi_0 - extra (at least 0), is kept and closed as
        # _close closes it: the past-upper case cannot arise (see the test
        # above), so these are the bounds nearest it; the sums are those of
        # _LARGE and _SMALL
        class Raised(Evaluator):
            def _sum_lower_v0(self, parts):
                return max(sum(self._vseq_of(p).hi[0] for p in parts) - extra, 0)

        ev = Raised()
        for a in _LARGE + _SMALL:
            for b in _SMALL:
                e = normalize(Sum((a, b)))
                if isinstance(e, Sum):
                    want = _outcome_text(fold_skipping_dominated, ev, e)
                    assert not isinstance(want, str), e
                    assert _outcome_text(ev._vseq_sum, e) == want, e

    @settings(max_examples=300, deadline=None)
    @given(st.deferred(lambda: _closed_sums_with_lows()))
    def test_vseq_sum_lower_bound_within_upper_on_tables(self, case):
        table, e = case
        _assert_lower_within_upper(_TableEvaluator(table), e)


def _assert_lower_within_upper(ev, e):
    v = ev._vseq_sum(e)
    assert ev._sum_lower_v0(e.parts) <= v.hi[0], e
    assert all(lo <= hi for lo, hi in zip(v.lo, v.hi)), e


class TestTau:
    def test_kn_family(self):
        for n in range(1, 11):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            t = Evaluator().tau(e)
            assert t.is_exact and t.value == -n

    def test_mirror_trefoil(self):
        t = Evaluator().tau(Mirror(torus_atom(2, 3)))
        assert t == Interval.exact(-1)

    def test_kkl_family(self):
        for k, l in [(1, 1), (2, 3), (3, 2)]:
            parts = tuple([WH] * (2 * k + 1)) + (Mirror(Cable(l + 2 * k + 1, 1, WH)),)
            t = Evaluator().tau(Sum(parts))
            assert t.is_exact and t.value == -l

    def test_cable_of_lspace_knot(self):
        # cable rule: tau = p*tau + (p-1)(q-1)/2
        t = Evaluator().tau(Cable(2, 3, torus_atom(2, 3)))
        assert t == Interval.exact(3)

    def test_unflagged_cable_gets_interval(self):
        e = Cable(2, 3, Mirror(torus_atom(2, 3)))
        t = Evaluator().tau(e)
        assert not t.is_exact
        n = Evaluator().nu_plus(e)
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
        assert ev.tau(e) == Interval.exact(6) and not old.tau(e).is_exact
        assert ev.nu_plus(e) == Interval.exact(6)
        # tau(N1*) = 1 = g, so its cable has tau = 2*1 + 1 = 3
        assert ev.tau(Cable(2, 3, Mirror(Atom("N1")))) == Interval.exact(3)
        # tau(Z2) = 0 < 2 = g proves nothing
        assert not ev.tau(Cable(2, 3, Atom("Z2"))).is_exact


class TestNuPlus:
    def test_t27(self):
        assert Evaluator().nu_plus(torus_atom(2, 7)) == Interval.exact(3)

    def test_unknot(self):
        assert Evaluator().nu_plus(UNKNOT) == Interval.exact(0)

    def test_kkl_lower_bound(self):
        for k, l in [(1, 1), (2, 2), (3, 1)]:
            parts = tuple([WH] * (2 * k + 1)) + (Mirror(Cable(l + 2 * k + 1, 1, WH)),)
            assert Evaluator().nu_plus(Sum(parts)).lo >= k


class TestD1:
    def test_unknot(self):
        assert Evaluator().d1(UNKNOT) == Interval.exact(0)

    def test_trefoil(self):
        assert Evaluator().d1(torus_atom(2, 3)) == Interval.exact(-2)

    def test_kn_nonzero(self):
        for n in range(1, 6):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            assert Evaluator().d1(e).hi <= -2

    def test_always_nonpositive_and_even_when_exact(self):
        for text in ["O", "T(2,3)", "T(3,4)", "T(2,7)"]:
            v = Evaluator().d1(parse(text))
            assert v.hi <= 0
            if v.is_exact:
                assert v.value % 2 == 0


class TestSurgeryD:
    def test_one_surgery_recovers_d1(self):
        for q in range(3, 23, 2):
            e = torus_atom(2, q)
            d = Evaluator().surgery_d(e, 1, 1, 0)
            assert d.is_exact
            assert d.value == Evaluator().d1(e).value

    def test_unknot_gives_lens_values(self):
        for p, q in [(2, 1), (3, 1), (5, 2), (2, 3)]:
            for i in range(p):
                d = Evaluator().surgery_d(UNKNOT, p, q, i)
                assert d.is_exact and d.value == lens_d(p, q, i)

    def test_two_surgery_on_trefoil(self):
        d = Evaluator().surgery_d(torus_atom(2, 3), 2, 1, 0)
        assert d.is_exact and d.value == Fraction(-7, 4)

    def test_q_greater_than_one(self):
        vals = [Evaluator().surgery_d(torus_atom(2, 3), 2, 3, i) for i in range(2)]
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
        d = Evaluator(degraded_db).surgery_d(Mirror(WH), 1, 1, 0)
        assert not d.is_exact
        assert d.hi == 0 and d.lo == -2  # genus 1 still bounds V_0 <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Evaluator().surgery_d(UNKNOT, 2, 1, 2)
        with pytest.raises(ValueError):
            Evaluator().surgery_d(UNKNOT, 4, 2, 0)


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


# a registry record of Wh(T(2,3)) without its genus: neither it nor its
# mirror has a zero tail, and the V_0 of its mirror is unbounded
NO_GENUS_WH_DB = default_db().with_atom(
    AtomCertificate(name=WHITEHEAD_TREFOIL, tau=1, alexander=LaurentPoly.one(), v0=1)
)


def _whitehead_sums():
    """k = 1..4 copies of Wh(T(2,3)) beside up to three other summands."""
    parts = st.tuples(st.integers(1, 4), st.lists(expressions(max_leaves=3), max_size=3)).map(
        lambda t: (WH,) * t[0] + tuple(t[1])
    )
    return parts.map(lambda ps: normalize(Sum(ps)) if len(ps) > 1 else WH)


class TestWhiteheadSubstitution:
    """The substituted bounds lie inside the expression's own, so reading
    them alone equals meeting them with the expression's own."""

    @settings(max_examples=300, deadline=None)
    @given(e=_whitehead_sums())
    @example(e=WH)
    @example(e=normalize(Sum((WH, WH, Mirror(torus_atom(2, 5))))))
    @example(e=normalize(Sum((WH, Mirror(WH), Cable(2, 1, Mirror(WH))))))
    def test_inside_own_bounds(self, db, degraded_db, e):
        for base in (db, degraded_db, NO_GENUS_WH_DB):
            got = _outcome(_invariants, Evaluator(base), e)
            assert got == _outcome(_invariants, IntersectingEvaluator(base), e), (base, e)
            if got is ContradictionError:
                continue
            ev = Evaluator(base)
            own, sub = ev._vseq_of(e), ev._vseq_of(nu_equiv_reduce(e))
            assert own.lo[0] <= sub.lo[0] and sub.hi[0] <= own.hi[0]
            assert all(sub.at(k).hi <= own.at(k).hi for k in range(max(len(own), len(sub)) + 1))
            assert own.first_possible_zero() <= sub.first_possible_zero()
            assert sub.first_certain_zero() <= own.first_certain_zero()


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

    def test_repeated_part_with_unbounded_mirror(self):
        # hi V_0(G*) and hi V_0(H) are unbounded: one copy of G (or H*)
        # beside small summands has a positive term, and a second copy
        # subtracts the first's unbounded hi V_0 of its mirror from it
        small = [UNKNOT, torus_atom(2, 3), Mirror(torus_atom(2, 3)), Mirror(torus_atom(2, 5))]
        rests = [(a,) for a in small] + [(a, a) for a in small] + [(small[1], small[3])]
        positive = 0
        for lone in (Atom("G"), Mirror(Atom("H"))):
            for m in (1, 2, 3):
                for rest in ([()] if m > 1 else []) + rests:
                    e = normalize(Sum((lone,) * m + rest))
                    fast, ref = Evaluator(GENUSLESS_DB), PartitionEvaluator(GENUSLESS_DB)
                    for k in (e, mirror(e)):
                        assert fast._sum_lower_v0(k.parts) == ref._sum_lower_v0(k.parts), k
                        assert _invariants(fast, k) == _invariants(ref, k), k
                    lo = fast._sum_lower_v0(e.parts)
                    if m > 1:
                        assert lo == 0, e
                    positive += lo > 0
        assert positive

    def test_twenty_summands_exact(self):
        # 19 distinct slice atoms (tau = V_0 = V_0 of the mirror = 0) beside
        # T(2,41): the single summand T(2,41) pins V_0 = 10 exactly
        base = default_db()
        for i in range(1, 20):
            base = base.with_atom(AtomCertificate(name=f"S{i}", tau=0, genus=1, v0=0, v0_mirror=0))
        e = Sum((torus_atom(2, 41),) + tuple(Atom(f"S{i}") for i in range(1, 20)))
        assert Evaluator(base).v_seq(e).at(0) == Interval.exact(10)


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
                prefix = sum(len(fast._vseq_of(p)) for p in k.parts)
                if prefix <= 64:
                    short += 1
                    assert _invariants(fast, k) == _invariants(ref, k), k
                    continue
                s, r = fast.v_seq(k), ref.v_seq(k)
                for j in range(max(len(s), len(r)) + 3):
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
        assert Evaluator(GENUSLESS_DB).nu_plus(e) == Interval.exact(100)
        assert CappedEvaluator(GENUSLESS_DB).nu_plus(e) == Interval(100, inf)
        assert Evaluator(GENUSLESS_DB).v_seq(e).at(100) == Interval.exact(0)


def _sums(e):
    """Every connected sum in the normal expression e, e included."""
    if isinstance(e, Sum):
        yield e
        for p in e.parts:
            yield from _sums(p)
    elif isinstance(e, Mirror):
        yield from _sums(e.child)
    elif isinstance(e, Cable):
        yield from _sums(e.companion)


class _TableEvaluator(Evaluator):
    """Evaluator whose atoms and mirrored atoms read the closed V-sequences
    and genus bounds of a table {expression: (VSeq, genus)}."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def _vseq_atom(self, e):
        return self.table[e][0]

    _vseq_mirror = _vseq_atom

    def _genus(self, e):
        return self.table[e][1] if e in self.table else super()._genus(e)


_UPPER = st.one_of(st.integers(0, 12), st.just(inf))


@st.composite
def _closed_sums(draw):
    """A sum of two to six atoms and mirrored atoms, each with a random
    closed V-sequence under a random genus bound or none: upper bounds of
    any shape the closure allows, infinite prefixes included."""
    table = {}
    for i in range(draw(st.integers(1, 4))):
        a = Atom(f"A{i}")
        genus = draw(st.one_of(st.integers(0, 12), st.just(inf)))
        for k in (a, Mirror(a)):
            his = draw(st.lists(_UPPER, min_size=1, max_size=14))
            table[k] = (_close([0] * len(his), his, genus), genus)
    parts = draw(st.lists(st.sampled_from(sorted(table, key=repr)), min_size=2, max_size=6))
    return table, Sum(tuple(parts))


@st.composite
def _closed_sums_with_lows(draw):
    """A sum as _closed_sums draws it, where each sequence also has a lower
    bound on V_0, from 0 up to its closed upper bound (at most 12)."""
    table, e = draw(_closed_sums())
    lows = {}
    for k, (v, genus) in table.items():
        lo0 = draw(st.integers(0, min(v.hi[0], 12)))
        lows[k] = (_close([lo0, *v.lo[1:]], v.hi, genus), genus)
    return lows, e


class TestDominatedSplits:
    """The sum fold that skips a split whose next step falls against the
    fold that tries every split up to the window."""

    @settings(max_examples=300, deadline=None)
    @given(_closed_sums())
    def test_random_closed_sequences(self, case):
        # the skip keeps the convolution itself: the sum's sequence, built
        # closed, is the _close output of the fold that tries every split,
        # a ContradictionError and its message included
        table, e = case
        ev = _TableEvaluator(table)
        assert _outcome_text(ev._vseq_sum, e) == _outcome_text(fold_every_split, ev, e)

    @settings(max_examples=300, deadline=None)
    @given(expressions(max_leaves=8, names=ATOM_NAMES + ["G", "H", "G0"]))
    @example(parse("T(2,7)* # T(2,9)* # T(3,4) # T(2,5)"))
    @example(Sum((Atom("H"), Mirror(torus_atom(2, 9)), Atom("G"), Cable(2, 1, Atom("H")))))
    def test_random_sums(self, e):
        # G and H have no genus, H no v0 and G0 no genus with V_0 = 0
        ev = Evaluator(GENUSLESS_DB)
        e = normalize(e)
        for s in [*_sums(e), *_sums(flip(e))]:
            assert _outcome(ev._vseq_sum, s) == _outcome(fold_every_split, ev, s), s

    @pytest.mark.parametrize("text", ["64*T(2,17)", "64*T(2,17)*", "T(2,3) # 20*T(2,5)* # T(3,7)"])
    def test_largest_sums(self, text):
        ev = Evaluator()
        e = parse(text)
        assert ev._vseq_sum(e) == fold_every_split(ev, e)


def _fold_matches_oracle(ev, e):
    """The sum fold, which builds its sequence closed, gives the _close
    output of fold_skipping_dominated for the sum e, a ContradictionError
    and its message included."""
    assert _outcome_text(ev._vseq_sum, e) == _outcome_text(fold_skipping_dominated, ev, e), e


def _falling(draw):
    # hi[n] = c - min(n, w)
    c, w = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    return [c + w - min(n, w) for n in range(w + 1)]


@st.composite
def _shaped_sums(draw):
    """A sum as _closed_sums draws it, where a sequence may also fall by
    one per step (genus-only, or c - min(n, w)) and each drawn summand
    appears one to four times, in any order."""
    table = {}
    for i in range(draw(st.integers(1, 4))):
        a = Atom(f"A{i}")
        genus = draw(st.one_of(st.integers(0, 12), st.just(inf)))
        for k in (a, Mirror(a)):
            shape = draw(st.sampled_from(("any", "genus-only", "falling")))
            if shape == "any":
                his = draw(st.lists(_UPPER, min_size=1, max_size=14))
            else:
                his = [inf] if shape == "genus-only" else _falling(draw)
            table[k] = (_close([0] * len(his), his, genus), genus)
    atoms = st.sampled_from(sorted(table, key=repr))
    groups = draw(st.lists(st.tuples(atoms, st.integers(1, 4)), min_size=2, max_size=5))
    parts = draw(st.permutations([p for p, m in groups for _ in range(m)]))
    return table, Sum(tuple(parts))


_MIRRORED_TORUS = [Mirror(torus_atom(p, q)) for p, q in ((2, 3), (2, 5), (2, 9), (3, 4), (3, 5))]


class TestFallingShift:
    """The sum fold that folds falling summands as one shift and reads
    each distinct summand once against the fold that takes every copy of
    every summand through the windowed fold (fold_skipping_dominated)."""

    @settings(max_examples=300, deadline=None)
    @given(_shaped_sums())
    def test_random_closed_sequences(self, case):
        table, e = case
        _fold_matches_oracle(_TableEvaluator(table), e)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(expressions(max_leaves=4, names=ATOM_NAMES + ["G", "H", "G0"]), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from(_MIRRORED_TORUS), max_size=3),
    )
    @example([(Atom("G"), 2), (WH, 3)], [_MIRRORED_TORUS[0]])
    @example([(Atom("H"), 1), (Atom("G0"), 2)], _MIRRORED_TORUS[:2])
    def test_random_sums_with_repeats(self, groups, mirrored):
        # G and H have no genus, H no v0 and G0 no genus with V_0 = 0
        parts = [p for p, m in groups for _ in range(m)] + mirrored
        if len(parts) < 2:
            return
        ev = Evaluator(GENUSLESS_DB)
        e = normalize(Sum(tuple(parts)))
        for s in [*_sums(e), *_sums(flip(e))]:
            _fold_matches_oracle(ev, s)

    @pytest.mark.parametrize(
        "family, rows",
        [
            (family_kkl, [(k, l) for k in range(1, 11) for l in range(1, 11)]),
            (family_jk, [(k,) for k in range(1, 21)]),
        ],
        ids=["kkl", "jk"],
    )
    def test_paper_families(self, family, rows):
        # each row of suite thm2 and suite remark at their default ranges,
        # its mirror, and the Whitehead substitution that nu+ reads
        ev = Evaluator()
        for args in rows:
            e = family(*args)
            for k in (e, flip(e), nu_equiv_reduce(e), nu_equiv_reduce(flip(e))):
                for s in _sums(k):
                    _fold_matches_oracle(ev, s)

    @pytest.mark.parametrize("text", ["64*T(2,17)", "64*T(2,17)*", "T(2,3) # 20*T(2,5)* # T(3,7)"])
    def test_largest_sums(self, text):
        _fold_matches_oracle(Evaluator(), parse(text))


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
                ref = ZeroFromVSeq(tuple(map(s.at, range(len(s)))), None if g == inf else g)
                for j in range(len(s) + 6):
                    assert s.at(j) == ref.at(j), (k, j)
                assert s.first_possible_zero() == ref.first_possible_zero(), k
                assert s.first_certain_zero() == ref.first_certain_zero(), k


class TestCableStep:
    """The Wu cable step, one read of the companion's closed bounds at
    min(a, b), against two reads through VSeq.at joined by max_with."""

    @pytest.mark.parametrize("which", ["db", "degraded_db", "genusless"])
    def test_matches_two_reads(self, request, which):
        if which == "genusless":
            base, pool = GENUSLESS_DB, _WIDE + _SMALL + _GENUSLESS_PARTS
        else:
            base, pool = request.getfixturevalue(which), _WIDE + _SMALL
        pool = pool + [Mirror(p) for p in pool]
        rng = random.Random(f"cable-{which}")
        fast, ref = Evaluator(base), WuCableEvaluator(base)
        for _ in range(150):
            parts = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            e = parts[0] if len(parts) == 1 else Sum(parts)
            for _ in range(rng.randint(1, 2)):
                p = rng.randint(2, 5)
                e = Cable(p, rng.choice([q for q in range(1, 41) if gcd(p, q) == 1]), e)
                if rng.random() < 0.3:
                    e = Mirror(e)
            e = normalize(e)
            for k in (e, mirror(e)):
                assert _invariants(fast, k) == _invariants(ref, k), k
        # reads past the companion's prefix take the tail rule
        assert ref.tail_reads > 100, ref.tail_reads


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
        assert Evaluator().genus_bound(torus_atom(2, 7)) == 3
        assert Evaluator().genus_bound(parse("(3*Wh(T(2,3))) # cable(4,1,Wh(T(2,3)))*")) == 7
        assert Evaluator().genus_bound(UNKNOT) == 0


class TestSoundnessProperties:
    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_vseq_nonneg_monotone_fixedpoint(self, e):
        s = Evaluator().v_seq(e)
        n = len(s)
        for k in range(n):
            iv = s.at(k)
            assert iv.lo >= 0
            assert iv.lo <= iv.hi
        for k in range(n - 1):
            a, b = s.at(k), s.at(k + 1)
            assert b.lo >= a.lo - 1 and a.lo >= b.lo
            assert b.hi <= a.hi <= b.hi + 1
        assert _close(s.lo, s.hi, inf) == s

    @settings(max_examples=300, deadline=None)
    @given(expressions(max_leaves=3), expressions(max_leaves=3))
    def test_tau_additive_where_exact(self, a, b):
        ta, tb = Evaluator().tau(a), Evaluator().tau(b)
        ts = Evaluator().tau(Sum((a, b)))
        if ta.is_exact and tb.is_exact:
            assert ts == Interval.exact(ta.value + tb.value)

    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_tau_mirror_antisymmetric(self, e):
        assert Evaluator().tau(Mirror(e)) == -Evaluator().tau(e)

    @settings(max_examples=300, deadline=None)
    @given(expressions())
    def test_tau_lo_below_nu_hi(self, e):
        t = Evaluator().tau(e)
        n = Evaluator().nu_plus(e)
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
