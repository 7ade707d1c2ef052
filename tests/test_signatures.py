"""Signature step functions against the Seifert-matrix eigenvalue oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from defslice.knotexpr import Atom, Cable, Mirror, Sum, WHITEHEAD_TREFOIL, alexander, parse, torus_atom
from defslice.laurent import vanishes_at_unit_root
from defslice.signatures import (
    JumpPointError,
    SignatureUnavailable,
    _cable_sigma,
    sigma,
    sigma_torus,
    signature_combination_check,
)
from defslice.knotexpr import CableSignError

from oracles import (
    alexander_from_seifert,
    alexander_torus_division,
    cable_sigma_by_midpoints,
    combination_check_by_box,
    numeric_signature,
    random_regular_angle,
    seifert_matrix_torus,
)
from strategies import expressions

HALF = Fraction(1, 2)
WH = Atom(WHITEHEAD_TREFOIL)


def jk(k):
    """T(2,2k+9) # (#^(k+5) T(2,3))*"""
    parts = (torus_atom(2, 2 * k + 9),) + tuple(
        Mirror(torus_atom(2, 3)) for _ in range(k + 5)
    )
    return Sum(parts)


class TestSigmaTorus:
    def test_trefoil_at_minus_one(self):
        assert sigma_torus(2, 3).at_minus_one() == -2

    def test_t27_at_minus_one(self):
        assert sigma_torus(2, 7).at_minus_one() == -6

    def test_vanishes_near_zero(self):
        for p, q in [(2, 3), (3, 4), (2, 9)]:
            assert sigma_torus(p, q).value(Fraction(1, 10**6)) == 0

    def test_trefoil_jump_structure(self):
        assert sigma_torus(2, 3).jumps == ((Fraction(1, 6), -2),)

    def test_jump_point_query_raises_with_limits(self):
        with pytest.raises(JumpPointError) as exc:
            sigma_torus(2, 3).value(Fraction(1, 6))
        assert exc.value.left == 0 and exc.value.right == -2


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
            fn = sigma_torus(p, q)
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
        tor = sigma_torus(3, 2)
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

    def test_negative_cable_rejected(self):
        with pytest.raises(CableSignError):
            sigma(Cable(3, -2, torus_atom(2, 3)))

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
        # sum, p = 2..5, each level also taken mirrored
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
                    got = _cable_sigma(base, p, q)
                    mismatches += got != cable_sigma_by_midpoints(base, p, q)
                    checked += 1
                    nxt += [Cable(p, q, e), Mirror(Cable(p, q, e))]
            level = rng.sample(nxt, 12)
        assert mismatches == 0
        assert checked == 6 * 11 + 12 * 11 + 12 * 11

    @settings(max_examples=100, deadline=None)
    @given(e=expressions(max_leaves=5))
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
