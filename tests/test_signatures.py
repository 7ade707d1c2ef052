"""Signature step functions against the Seifert-matrix eigenvalue oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defslice.certificates import AtomCertificate, default_db
from defslice.knotexpr import Atom, Cable, Mirror, Sum, WHITEHEAD_TREFOIL, alexander, parse, torus_atom
from defslice.laurent import LaurentPoly, vanishes_at_unit_root
from defslice.signatures import (
    JumpPointError,
    SigFn,
    SignatureUnavailable,
    _cable_sigma,
    _jumps,
    sigma,
    signature_combination_check,
)

from oracles import (
    alexander_from_seifert,
    alexander_torus_division,
    cable_sigma_by_midpoints,
    combination_check_by_box,
    numeric_signature,
    pieces_by_comparison,
    random_regular_angle,
    seifert_matrix_torus,
    sigma_by_fold,
    sigma_by_fraction_walk,
    sigma_torus_by_fractions,
)
from strategies import ATOM_NAMES, CABLE_PQ_ANY, expressions, expressions_any_cable
from workload_inputs import workload_argvs

HALF = Fraction(1, 2)
WH = Atom(WHITEHEAD_TREFOIL)


def over_one_denominator(fn):
    """The jumps of fn as (D, pairs): integer numerators over the lcm D
    of their denominators."""
    d = lcm(*(x.denominator for x, _ in fn.jumps))
    return d, [(x.numerator * (d // x.denominator), delta) for x, delta in fn.jumps]


def jk(k):
    """T(2,2k+9) # (#^(k+5) T(2,3))*"""
    parts = (torus_atom(2, 2 * k + 9),) + tuple(
        Mirror(torus_atom(2, 3)) for _ in range(k + 5)
    )
    return Sum(parts)


class TestSigFnRefusals:
    """SigFn refuses a jump outside (0, 1/2], jumps out of order and an
    odd or zero delta, each with its own message."""

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 3), Fraction(5, 9), Fraction(1)])
    def test_outside_half_circle(self, x):
        with pytest.raises(ValueError, match=rf"^jump at {x} outside \(0, 1/2\]$"):
            SigFn(((Fraction(1, 7), 2), (x, -2)) if x > Fraction(1, 7) else ((x, 2),))

    @pytest.mark.parametrize("second", [Fraction(1, 5), Fraction(2, 10), Fraction(1, 6)])
    def test_not_increasing(self, second):
        with pytest.raises(ValueError, match="^jumps must be strictly increasing$"):
            SigFn(((Fraction(1, 5), 2), (second, -2)))

    @pytest.mark.parametrize("delta", [0, 1, -3])
    def test_odd_or_zero_delta(self, delta):
        with pytest.raises(ValueError, match=f"^jump deltas must be even and nonzero, got {delta}$"):
            SigFn(((Fraction(1, 5), 2), (HALF, delta)))

    def test_accepts_the_edges(self):
        # the least and the largest angles, and neighbours 10**-30 apart
        below_half = Fraction(10**30 - 1, 2 * 10**30)
        fn = SigFn(((Fraction(1, 10**30), 2), (below_half, -4), (HALF, 2)))
        assert fn.value(Fraction(1, 4)) == 2
        assert fn.value(below_half + Fraction(1, 10**31)) == -2


class TestSigFnPieces:
    @pytest.mark.parametrize(
        "jumps",
        [(), ((HALF, 2),), ((Fraction(1, 6), -2), (HALF, 4)), ((Fraction(1, 10**30), 2), (Fraction(1, 3), -4))],
        ids=["zero", "at-half", "before-and-at-half", "below-half"],
    )
    def test_pieces_end_at_one_half(self, jumps):
        # a knot's signature never jumps at 1/2, where its Alexander
        # polynomial is odd, so only a SigFn built by hand reaches the
        # last piece's comparison
        fn = SigFn(jumps)
        assert fn.pieces() == pieces_by_comparison(fn)
        assert fn.pieces()[-1][1] == HALF and all(lo < hi for lo, hi, _ in fn.pieces())


class TestSigmaTorus:
    def test_trefoil_at_minus_one(self):
        assert sigma(torus_atom(2, 3)).at_minus_one() == -2

    def test_t27_at_minus_one(self):
        assert sigma(torus_atom(2, 7)).at_minus_one() == -6

    def test_vanishes_near_zero(self):
        for p, q in [(2, 3), (3, 4), (2, 9)]:
            assert sigma(torus_atom(p, q)).value(Fraction(1, 10**6)) == 0

    def test_trefoil_jump_structure(self):
        assert sigma(torus_atom(2, 3)).jumps == ((Fraction(1, 6), -2),)

    def test_jump_point_query_raises_with_limits(self):
        with pytest.raises(JumpPointError) as exc:
            sigma(torus_atom(2, 3)).value(Fraction(1, 6))
        assert exc.value.left == 0 and exc.value.right == -2


    def test_counting_matches_fractions(self):
        for p in range(1, 12):
            for q in range(1, 30):
                if gcd(p, q) == 1:
                    assert sigma(torus_atom(p, q)) == sigma_torus_by_fractions(p, q), (p, q)

class TestOracleAgreement:
    def test_oracle_matrix_is_anchored(self):
        # the tensor construction reproduces the division-formula Alexander
        # polynomial and the classical signatures at -1
        classical = {(2, 3): -2, (2, 5): -4, (2, 7): -6, (2, 9): -8, (3, 4): -6, (3, 5): -8}
        for (p, q), sig in classical.items():
            V = seifert_matrix_torus(p, q)
            assert alexander_from_seifert(V) == alexander_torus_division(p, q)
            assert numeric_signature(V, HALF) == sig

    def test_counting_formula_matches_oracle(self):
        rng = random.Random(20240811)
        for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]:
            fn = sigma(torus_atom(p, q))
            V = seifert_matrix_torus(p, q)
            for _ in range(100):
                x = random_regular_angle(rng, fn)
                assert fn.value(x) == numeric_signature(V, x)


class TestSigmaExpressions:
    def test_whitehead_and_unknot_vanish(self):
        assert sigma(WH).is_zero
        assert sigma(Atom("O")).is_zero

    def test_sum_and_mirror(self):
        e = Sum((torus_atom(2, 3), Mirror(torus_atom(2, 3))))
        assert sigma(e).is_zero

    def test_cabled_trefoil_at_minus_one(self):
        # sigma_K(omega^2) vanishes at omega = -1, leaving the torus term
        fn = sigma(Cable(2, 3, torus_atom(2, 3)))
        assert fn.at_minus_one() == -2

    def test_cable_against_pointwise_formula(self):
        rng = random.Random(1)
        base = sigma(torus_atom(2, 5))
        tor = sigma(torus_atom(3, 2))
        fn = sigma(Cable(3, 2, torus_atom(2, 5)))
        for _ in range(50):
            x = random_regular_angle(rng, fn)
            y = (3 * x) % 1
            yh = y if y <= HALF else 1 - y
            try:
                expected = (0 if yh == 0 else base.value(yh)) + tor.value(x)
            except JumpPointError:
                continue
            assert fn.value(x) == expected

    def test_negative_cable_is_mirrored(self):
        # (K_{p,q})* = (K*)_{p,-q}, so sigma of a cable with q < 0 is sigma
        # of the positive cable of the mirrored companion, negated
        t = torus_atom(2, 3)
        for p, q, k in [(3, -2, t), (2, -3, t), (2, -1, Sum((t, Mirror(torus_atom(2, 5)))))]:
            positive = sigma(Cable(p, -q, Mirror(k)))
            assert sigma(Cable(p, q, k)).jumps == tuple((x, -d) for x, d in positive.jumps)
        # Litherland's formula with sigma_{T(2,-3)} = -sigma_{T(2,3)}, by hand
        assert [v for _, _, v in sigma(Cable(2, -3, t)).pieces()] == [0, -2, 0, 2]

    def test_atom_without_rule(self, degraded_db):
        from defslice.certificates import AtomCertificate, default_db
        from defslice.laurent import LaurentPoly

        db = default_db().with_atom(
            AtomCertificate(name="Opaque", alexander=LaurentPoly({-1: 1, 0: -1, 1: 1}))
        )
        with pytest.raises(SignatureUnavailable):
            sigma(Atom("Opaque"), db)

    def test_cable_by_moving_jumps_matches_midpoints(self):
        # nested cables of depth <= 3 over torus knots, their mirrors and a
        # sum, p = 2..5, each level also taken mirrored; each cable is also
        # taken with q negated, through sigma, which normalizes it to the
        # mirror of a positive cable, against the midpoints read with the
        # negated torus term
        rng = random.Random(20161)
        pqs = [(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 4), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3)]
        level = [
            parse(text)
            for text in ["T(2,3)", "T(2,5)", "T(3,4)", "T(2,3)*", "T(3,5)*", "T(2,3) # T(2,5)*"]
        ]
        checked = mismatches = 0
        for depth in range(3):
            nxt = []
            for e in level:
                base = sigma(e)
                for p, q in pqs:
                    got = _jumps(*_cable_sigma(over_one_denominator(base), p, q))
                    mismatches += got != cable_sigma_by_midpoints(base, p, q)
                    negated = sigma(Cable(p, -q, e))
                    mismatches += negated != cable_sigma_by_midpoints(base, p, -q)
                    checked += 1
                    nxt += [Cable(p, q, e), Mirror(Cable(p, q, e))]
            level = rng.sample(nxt, 12)
        assert mismatches == 0
        assert checked == 6 * 11 + 12 * 11 + 12 * 11

    def test_cable_of_a_jump_at_one_half(self):
        # under an odd p a companion jump at u = 1/2 moves up and down to
        # the same x = (2m + 1)/(2p), and to x = 1/2 itself at m = (p - 1)/2:
        # the cut 2n <= D keeps both pairs there, which cancel
        for jumps in [((HALF, 2),), ((Fraction(1, 6), -2), (HALF, 4))]:
            base = SigFn(jumps)
            for p, q in [(3, 1), (3, 2), (5, 2), (5, 3), (7, 4)]:
                d, pairs = _cable_sigma(over_one_denominator(base), p, q)
                at_half = sorted(delta for n, delta in pairs if 2 * n == d)
                assert at_half == [-jumps[-1][1], jumps[-1][1]]
                assert _jumps(d, pairs) == cable_sigma_by_midpoints(base, p, q)

    @settings(max_examples=100, deadline=None)
    @given(e=expressions_any_cable(max_leaves=5))
    def test_jumps_lie_on_alexander_roots(self, e):
        # Levine-Tristram signatures jump only at roots of the Alexander
        # polynomial
        alex = alexander(e)
        for x, _ in sigma(e).jumps:
            assert vanishes_at_unit_root(alex, x)

    @settings(max_examples=150, deadline=None)
    @given(e=expressions(max_leaves=4))
    def test_values_even_and_vanishing_near_zero(self, e):
        fn = sigma(e)
        assert fn.value(Fraction(1, 10**9)) == 0
        for _, _, v in fn.pieces():
            assert v % 2 == 0

    @settings(max_examples=100, deadline=None)
    @given(a=expressions(max_leaves=3), b=expressions(max_leaves=3))
    def test_pointwise_additivity_and_mirror(self, a, b):
        rng = random.Random(7)
        fa, fb = sigma(a), sigma(b)
        fsum = sigma(Sum((a, b)))
        fmir = sigma(Mirror(a))
        for _ in range(5):
            x = random_regular_angle(rng, fsum)
            try:
                va, vb = fa.value(x), fb.value(x)
            except JumpPointError:
                continue
            assert fsum.value(x) == va + vb
            try:
                assert fmir.value(x) == -va
            except JumpPointError:
                pass


# registry atoms beside the built-ins: two with Alexander polynomial 1, whose
# signature vanishes, and two with no signature rule, one without an
# Alexander polynomial and one whose polynomial is not 1
SIG_DB = (
    default_db()
    .with_atom(AtomCertificate(name="S1", tau=0, genus=1, alexander=LaurentPoly.one()))
    .with_atom(AtomCertificate(name="S2", alexander=LaurentPoly.one()))
    .with_atom(AtomCertificate(name="Bare", genus=2))
    .with_atom(AtomCertificate(name="Opaque", alexander=LaurentPoly({-1: 1, 0: -1, 1: 1})))
)
_SIG_NAMES = ATOM_NAMES + ["S1", "S2", "Bare", "Opaque"]


def _outcome(fn, e, db=SIG_DB):
    """fn(e, db), or the type and message of the error it raises."""
    try:
        return fn(e, db)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _cancelling_cables(draw):
    """cable(p, q, K # K*) with q of either sign, alone or beside another
    expression: the companion's jumps cancel once merged."""
    k = draw(expressions_any_cable(max_leaves=3, names=_SIG_NAMES))
    p, q = draw(st.sampled_from(CABLE_PQ_ANY))
    e = Cable(p, q, Sum((k, Mirror(k))))
    if draw(st.booleans()):
        e = Sum((e, draw(expressions_any_cable(max_leaves=3, names=_SIG_NAMES))))
    return Mirror(e) if draw(st.booleans()) else e


@st.composite
def _repeated_summand_cables(draw):
    """cable(p, q, n*K # L), nested one to three deep, with n = 2..4: the
    companion repeats each of its jumps n times."""
    e = draw(expressions_any_cable(max_leaves=2, names=_SIG_NAMES))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(expressions_any_cable(max_leaves=2, names=_SIG_NAMES))
        parts = (k,) * draw(st.integers(2, 4)) + (e,)
        p, q = draw(st.sampled_from(CABLE_PQ_ANY))
        e = Cable(p, q, Sum(parts))
    return Mirror(e) if draw(st.booleans()) else e


def _workload_expressions():
    """Every knot expression in the argv lists of the cables and cli-mix
    workloads at their default seed, in order, as written."""
    texts = []
    for cmd, *args in workload_argvs(("cables", "cli-mix")):
        if cmd == "independence":
            texts += args[: args.index("--bound")]
        else:
            texts.append(args[0])
    return texts


@st.composite
def _nested_cables(draw):
    """A chain of one to five cables, q of either sign, around a registry
    atom, a mirror or a small sum, each level possibly mirrored."""
    e = draw(expressions_any_cable(max_leaves=2, names=_SIG_NAMES))
    for _ in range(draw(st.integers(1, 5))):
        p, q = draw(st.sampled_from(CABLE_PQ_ANY))
        e = Cable(p, q, e)
        if draw(st.booleans()):
            e = Mirror(e)
    return e


def _agree(e, db=SIG_DB):
    """sigma(e, db) against the Fraction walk it replaced and against the
    per-node fold: the same function, or the same error raised at the same
    node; returns that outcome.  The function's pieces match the loop that
    compared each jump with the one before it."""
    got = _outcome(sigma, e, db)
    assert got == _outcome(sigma_by_fraction_walk, e, db)
    assert got == _outcome(sigma_by_fold, e, db)
    if not isinstance(got, tuple):
        assert got.pieces() == pieces_by_comparison(got)
    return got


class TestWalkAgainstFold:
    """sigma, one walk on integer numerators merged once, against the
    Fraction walk it replaced and the SigFn fold at every node."""

    @settings(max_examples=300, deadline=None)
    @given(expressions_any_cable())
    @example(Sum((Cable(2, 3, torus_atom(2, 5)), Cable(3, -2, torus_atom(2, 3)))))
    def test_any_cable(self, e):
        _agree(e)

    @settings(max_examples=200, deadline=None)
    @given(_cancelling_cables())
    @example(Cable(3, 2, Sum((torus_atom(2, 3), Mirror(torus_atom(2, 3))))))
    def test_cancelling_companions(self, e):
        _agree(e)

    @settings(max_examples=300, deadline=None)
    @given(expressions_any_cable(names=_SIG_NAMES))
    @example(Sum((Atom("S1"), Cable(2, 3, Atom("S2")), Mirror(torus_atom(2, 3)))))
    @example(Sum((torus_atom(2, 3), Cable(2, 1, Atom("Opaque")), Atom("Bare"))))
    @example(Sum((Atom("Bare"), Cable(2, -1, torus_atom(2, 3)))))
    @example(Cable(2, -1, Atom("Opaque")))
    @example(Sum((Cable(2, 1, Atom("Opaque")), Cable(3, -2, torus_atom(2, 3)))))
    def test_registry_atoms(self, e):
        _agree(e)

    @settings(max_examples=200, deadline=None)
    @given(_repeated_summand_cables())
    @example(parse("cable(5,2,cable(3,4,cable(2,3,4*T(2,5))))"))
    @example(parse("cable(3,2,cable(2,5,3*T(2,3)))"))
    def test_repeated_summands(self, e):
        _agree(e)

    def test_cancelling_companion_is_the_torus_term(self):
        # K # K* has zero signature, so its cable's is the torus term's
        k = Sum((Cable(2, 3, torus_atom(2, 5)), torus_atom(3, 4)))
        e = Cable(3, 2, Sum((k, Mirror(k))))
        assert sigma(e) == sigma(torus_atom(3, 2)) == sigma_by_fold(e)

    def test_mirror_negates(self):
        for text in ["T(2,3)", "cable(2,3,T(2,5)) # T(3,4)*", "cable(3,2,T(2,3) # T(2,5))*"]:
            e = parse(text)
            assert sigma(Mirror(e)).jumps == tuple((x, -d) for x, d in sigma(e).jumps)
            assert not sigma(e).is_zero


    @settings(max_examples=200, deadline=None)
    @given(_nested_cables())
    def test_nested_cables(self, e):
        _agree(e)

    def test_workload_expressions(self):
        texts = _workload_expressions()
        compared = 0
        for text in texts:
            try:
                e = parse(text)
            except ValueError:
                continue  # the workloads' malformed inputs
            compared += not isinstance(_agree(e, None), tuple)
        assert compared >= 400  # of 409 at seed 1, 403 parse; 6 are malformed

    def test_deep_cable_of_index_one(self):
        # cable(2,1,...) nine deep around T(2,3): the denominator doubles at
        # every level, to 6 * 2^9, and so does the number of jumps
        e = torus_atom(2, 3)
        for _ in range(9):
            e = Cable(2, 1, e)
        fn = _agree(e)
        assert len(fn.jumps) == 2**9
        assert max(x.denominator for x, _ in fn.jumps) == 6 * 2**9

    def test_sum_of_many_distinct_torus_knots(self):
        # 45 torus knots, every third mirrored, over one denominator: the
        # lcm of their p*q
        pqs = [(p, q) for p in range(2, 7) for q in range(p + 1, 20) if gcd(p, q) == 1]
        parts = [torus_atom(p, q) if i % 3 else Mirror(torus_atom(p, q)) for i, (p, q) in enumerate(pqs)]
        assert len(pqs) == 45 and lcm(*(p * q for p, q in pqs)) == 232_792_560
        fn = _agree(Sum(tuple(parts)))
        assert len(fn.jumps) == 414
        assert _agree(Cable(3, 2, Sum(tuple(parts[:12])))) != fn

class TestJkFamily:
    def test_sign_pattern(self):
        for k in range(1, 21):
            fn = sigma(jk(k))
            assert fn.at_minus_one() == 2
            q = 2 * k + 9
            for i in (1, 2, 3):
                x = Fraction(2 + i, 4 * q)  # interior of (1/(2q), 3/(2q))
                assert fn.value(x) == -2


class TestCombinationCheck:
    def test_jk_independent_at_level_3(self):
        chk = signature_combination_check([jk(1), jk(2), jk(3)], 3)
        assert chk.independent
        assert chk.count == 7**3 - 1  # 342

    def test_duplicate_knot_dependent(self):
        t = torus_atom(2, 3)
        chk = signature_combination_check([t, t], 1)
        assert not chk.independent
        assert (1, -1) in chk.dependent

    def test_empty_vacuous(self):
        chk = signature_combination_check([], 2)
        assert chk.independent and chk.count == 0

    def test_full_rank_counts_the_whole_box(self):
        # n = 6 at bound 2 would be 15,624 sums of signature functions
        chk = signature_combination_check([jk(k) for k in range(1, 7)], 2)
        assert chk.independent and chk.count == 5**6 - 1

    def test_matches_box_search(self):
        texts = [
            "T(2,3)", "T(2,3)*", "T(2,5)", "T(3,4)", "T(2,3) # T(2,3)", "T(2,3) # T(2,5)*",
            "cable(2,1,T(2,3))", "cable(2,3,T(2,3))*", "Wh(T(2,3))", "O", "T(2,7) # 2*T(2,3)*",
        ]
        knots = [parse(t) for t in texts]
        rng = random.Random(3)
        sets = [
            [parse("T(2,3)"), parse("T(2,3) # T(2,3)")],
            [parse("T(2,3)"), parse("T(2,3)")],
            [parse("T(2,3)"), parse("T(2,5)"), parse("T(2,3)*"), parse("T(2,5) # T(2,3)")],
        ]
        sets += [rng.sample(knots, rng.randint(1, 4)) for _ in range(30)]
        dependent = mismatches = 0
        for ks in sets:
            for bound in (1, 2):
                got = signature_combination_check(ks, bound)
                mismatches += got != combination_check_by_box(ks, bound)
                dependent += not got.independent
        assert mismatches == 0
        assert dependent >= 10
