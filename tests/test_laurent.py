"""The root-of-unity test against cyclotomic division, against sympy and
against the fold without its degree test; the dict product and the
packed-integer product against the dict product taken one factor at a
time; the one-pass L-space torsion read against its suffix-sum test
and the defining sums; the semigroup torus Alexander polynomials against long
division."""

import random
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defslice.knotexpr import alexander, parse
from defslice.laurent import (
    LaurentPoly,
    lspace_torsion,
    product,
    torus_alexander,
    vanishes_at_unit_root,
)

from oracles import (
    alexander_by_dict_mul,
    alexander_torus_division,
    cyclotomic,
    monomial,
    mul_by_dict,
    torsion_coefficient,
    torus_alexander_by_division,
    vanishes_by_cyclotomic,
    vanishes_by_fold,
    vanishes_by_sympy,
)
from strategies import expressions
from workload_inputs import workload_reports


MAX_DEN = 24


def _inputs():
    torus = [torus_alexander(p, q) for p in range(2, 6) for q in range(p + 1, 10) if gcd(p, q) == 1]
    cables = [
        torus_alexander(a, b).subst_power(p) * torus_alexander(p, q)
        for a, b in [(2, 3), (2, 5), (3, 4)]
        for p, q in [(2, 1), (2, 3), (2, 7), (3, 2), (3, 5)]
    ]
    products = []
    for ds in [(1,), (2, 3), (6, 6), (4, 9, 12), (5, 10, 20), (7, 14), (8, 24), (15,), (16, 18)]:
        poly = monomial(-len(ds), -1)
        for d in ds:
            poly = poly * cyclotomic(d)
        products.append(poly)
    rng = random.Random(20160621)
    rand = [
        LaurentPoly({rng.randrange(-30, 30): rng.randrange(-3, 4) for _ in range(rng.randrange(1, 12))})
        for _ in range(25)
    ]
    return torus + cables + products + rand + [LaurentPoly.zero()]


def test_vanishes_at_unit_root_matches_oracles():
    roots = mismatches = 0
    for poly in _inputs():
        by_den = {}
        for n in range(1, MAX_DEN + 1):
            by_den[n] = vanishes_by_sympy(poly, Fraction(1, n))
            for a in range(n):
                x = Fraction(a, n)
                got = vanishes_at_unit_root(poly, x)
                want = by_den[x.denominator]
                mismatches += got != want or got != vanishes_by_cyclotomic(poly, x)
                roots += got
    assert mismatches == 0
    assert roots > 900


def test_integer_and_zero_arguments():
    trefoil = torus_alexander(2, 3)
    assert not vanishes_at_unit_root(trefoil, 0)
    assert vanishes_at_unit_root(trefoil, Fraction(1, 6))
    assert vanishes_at_unit_root(LaurentPoly({0: 1, 3: -1}), 2)
    assert vanishes_at_unit_root(LaurentPoly.zero(), Fraction(2, 7))


class TestDegreeTestAgainstFold:
    """vanishes_at_unit_root answers False with no fold when phi(n) exceeds
    the span of the polynomial; the fold alone is the reference."""

    def test_cyclotomic_products(self):
        # Phi_n has span phi(n) exactly, so a root at a/n sits on the bound;
        # t^k * Phi_n * Phi_m with k = -phi(m) - 1 has degree phi(n) - 1,
        # below its span
        roots = 0
        for n in range(1, 151):
            m = n * 7 % 150 + 1
            k = -cyclotomic(m).degree - 1
            for poly in (cyclotomic(n), monomial(k) * cyclotomic(n) * cyclotomic(m)):
                for d in (n, m):
                    for a in range(d):
                        x = Fraction(a, d)
                        got = vanishes_at_unit_root(poly, x)
                        assert got == vanishes_by_fold(poly, x), (n, m, poly, x)
                        roots += got
        assert roots > 11_000

    def test_workload_expressions(self):
        # the Alexander polynomial of every report in the cables and
        # cli-mix workloads at their default seed, at one a/n for every n
        polys = {alexander(e) for e in workload_reports()}
        assert len(polys) > 100
        rng = random.Random(19)
        xs = []
        for n in range(1, 601):
            a = rng.randrange(n)
            while gcd(a, n) != 1:
                a = rng.randrange(n)
            xs.append(Fraction(a, n))
        phis = [sum(gcd(a, n) == 1 for a in range(1, n + 1)) for n in range(1, 601)]
        skipped = roots = 0
        for poly in polys:
            span = poly.degree - poly.min_exp
            for x, phi in zip(xs, phis):
                got = vanishes_at_unit_root(poly, x)
                assert got == vanishes_by_fold(poly, x), (poly, x)
                roots += got
                skipped += phi > span
        assert roots > 0 and skipped > 0

    def test_constants_and_zero(self):
        for a in (1, -1, 2, -7, 10**30):
            for x in (0, Fraction(1, 2)):
                assert not vanishes_at_unit_root(LaurentPoly({0: a}), x)
                assert not vanishes_at_unit_root(LaurentPoly({5: a}), x)
        for x in (Fraction(1, 30_030), Fraction(12_345, 99_991)):
            assert vanishes_at_unit_root(LaurentPoly.zero(), x)
            assert vanishes_by_fold(LaurentPoly.zero(), x)

    def test_float_angle_raises(self):
        # a float would be read as a denominator of up to 2^55
        for x in (0.1, 0.5, 1.0, "1/2", None):
            with pytest.raises(TypeError):
                vanishes_at_unit_root(torus_alexander(2, 3), x)
            with pytest.raises(TypeError):
                vanishes_at_unit_root(LaurentPoly.zero(), x)


_COEFFS = st.one_of(st.integers(-2, 2), st.integers(-(10**30), 10**30))
_POLYS = st.dictionaries(st.integers(-40, 40), _COEFFS, max_size=12).map(LaurentPoly)


class TestProductAgainstDict:
    """LaurentPoly.__mul__, built through the private constructor, against
    the dict product it replaced, which goes through the validating one."""

    @staticmethod
    def _agree(p, q):
        got = p * q
        want = mul_by_dict(p, q)
        assert got == want and hash(got) == hash(want)
        assert 0 not in got._c.values()
        assert all(type(a) is int for a in got._c.values())
        return got

    @settings(max_examples=300, deadline=None)
    @given(_POLYS, _POLYS)
    @example(LaurentPoly.zero(), LaurentPoly({-3: 2, 4: -1}))
    @example(LaurentPoly({0: 5}), LaurentPoly({7: 10**30}))
    @example(LaurentPoly({-2: 1}), LaurentPoly({2: -1}))
    def test_random(self, p, q):
        self._agree(p, q)
        self._agree(q, p)

    def test_cancelling_products(self):
        t, one = monomial(1), LaurentPoly.one()
        big = monomial(1, 10**30)
        for p, q in [
            (one - t, one + t),
            (t - monomial(-1), t + monomial(-1)),
            (one + t + monomial(2), one - t),
            (big - one, big + one),
        ]:
            got = self._agree(p, q)
            assert len(got._c) < len(p._c) * len(q._c)
        assert (one - t) * (one + t) == one - monomial(2)
        assert (t - monomial(-1)) * (t + monomial(-1)) == monomial(2) - monomial(-2)

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_alexander(self, e):
        assert alexander(e) == alexander_by_dict_mul(e)


class TestPowerBySquaring:
    """LaurentPoly.__pow__, a one-factor laurent.product, and the Alexander
    polynomial of a sum, which raises each distinct summand's polynomial to
    its multiplicity, against the product taken one factor at a time."""

    @staticmethod
    def _sequential(p, k):
        out = LaurentPoly.one()
        for _ in range(k):
            out = mul_by_dict(out, p)
        return out

    @settings(max_examples=150, deadline=None)
    @given(_POLYS, st.integers(0, 12))
    @example(LaurentPoly.zero(), 0)
    @example(LaurentPoly.zero(), 3)
    @example(LaurentPoly({5: -(10**30)}), 7)
    def test_random(self, p, k):
        got = p**k
        assert got == self._sequential(p, k)
        assert 0 not in got._c.values()

    def test_exponents_up_to_64(self):
        p = LaurentPoly({-1: 1, 0: -1, 1: 1})
        for k in range(65):
            assert p**k == self._sequential(p, k), k

    def test_refuses_negative_and_non_int_exponents(self):
        for k in (-1, 1.0, True, Fraction(2)):
            with pytest.raises(ValueError):
                LaurentPoly.one() ** k

    @pytest.mark.parametrize("knot", ["T(2,3)", "T(2,17)", "T(3,4)", "cable(2,1,T(2,3))", "Wh(T(2,3))"])
    def test_multiples(self, knot):
        for k in (1, 2, 3, 7, 16, 31, 64):
            for text in (f"{k}*{knot}", f"{k}*{knot}*"):
                assert alexander(parse(text)) == alexander_by_dict_mul(parse(text)), text

    @pytest.mark.parametrize(
        "text",
        [
            "T(2,3) # T(2,3)*",
            "T(2,3) # T(2,3)* # T(2,3) # T(2,5) # T(2,5)*",
            "32*T(2,17) # 32*T(2,17)*",
            "21*T(2,3) # 21*T(2,3)* # 11*T(2,5) # 11*T(3,4)*",
            "5*cable(2,1,T(2,3)) # 3*cable(2,1,T(2,3))* # 2*cable(3,2,T(2,3)) # T(2,3)",
            "9*Wh(T(2,3)) # 9*Wh(T(2,3))* # 6*T(2,7)* # 40*T(2,3)",
        ],
    )
    def test_mixed_sums(self, text):
        assert alexander(parse(text)) == alexander_by_dict_mul(parse(text))


def _one_at_a_time(pairs):
    # the product of p ** k over the pairs, one mul_by_dict per factor
    out = LaurentPoly.one()
    for p, k in pairs:
        for _ in range(k):
            out = mul_by_dict(out, p)
    return out


_MONOMIALS = st.builds(monomial, st.integers(-40, 40), _COEFFS.filter(bool))
_FACTORS = st.tuples(st.one_of(_POLYS, _MONOMIALS), st.integers(0, 5))
_LARGEST_SUMS = ["64*T(2,17)", " # ".join(f"T(2,{q})" for q in range(3, 65, 2))]


class TestPackedProduct:
    """laurent.product, one packed-integer product whose digit width holds
    the L1-norm bound, against the product one factor at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FACTORS, max_size=5))
    @example([(monomial(0, 2), 7)])
    @example([(monomial(3, -2), 7), (monomial(-1, 1), 2)])
    @example([(LaurentPoly({-3: 10**30, 2: -(10**30)}), 3), (LaurentPoly({0: 1, 1: -1}), 4)])
    @example([(LaurentPoly.zero(), 0), (LaurentPoly({-1: 1, 1: 1}), 2)])
    @example([(LaurentPoly.zero(), 2), (LaurentPoly({-1: 1, 1: 1}), 2)])
    @example([(LaurentPoly({-2: 1, 5: -3}), 0)])
    def test_random(self, pairs):
        got = product(pairs)
        assert got == _one_at_a_time(pairs)
        assert 0 not in got._c.values()
        assert all(type(a) is int for a in got._c.values())

    def test_width_boundary(self):
        # 2**(8w-1) is the first coefficient that needs one byte more:
        # the products of monomials reach the L1 bound exactly
        for k in range(70):
            for a in (2, -2):
                got = product([(monomial(-1), k), (monomial(1, a), k)])
                assert got == monomial(0, a**k), (a, k)
                assert monomial(1, a) ** k == monomial(k, a**k), (a, k)

    def test_zero_and_empty(self):
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        assert product([]) == one
        assert product([(zero, 0)]) == zero**0 == one
        assert product([(zero, 1)]) == zero**3 == zero
        assert product([(zero, 0), (monomial(2, 5), 1)]) == monomial(2, 5)
        assert product([(monomial(2, 5), 1), (zero, 2)]) == zero

    def test_refuses_negative_and_non_int_exponents(self):
        for k in (-1, 1.0, True, Fraction(2)):
            with pytest.raises(ValueError):
                product([(LaurentPoly.one(), 1), (LaurentPoly.one(), k)])

    @pytest.mark.parametrize("workload", ["suites", "cli-mix", "wide-sums", "cables"])
    def test_alexander_of_workload_reports(self, workload):
        exprs = workload_reports((workload,), seeds=(1, 2, 3))
        for e in exprs:
            assert alexander(e) == alexander_by_dict_mul(e), e

    @pytest.mark.parametrize("text", _LARGEST_SUMS)
    def test_alexander_of_largest_sums(self, text):
        assert alexander(parse(text)) == alexander_by_dict_mul(parse(text))


class TestConstructorRefusesNonIntegers:
    def test_non_int_exponent_or_coefficient(self):
        for coeffs in (
            {1.7: 2},
            {0: 1.9},
            {1: 2.0},
            {Fraction(1, 2): 1},
            {0: Fraction(3)},
            {True: 1},
            {0: True},
            {"1": 1},
            [(0, 1), (1, 0.5)],
        ):
            with pytest.raises(TypeError):
                LaurentPoly(coeffs)

    def test_ints_accumulate_and_zeros_drop(self):
        assert LaurentPoly([(1, 2), (1, -2), (0, 3), (2, 0)]) == LaurentPoly({0: 3})
        assert LaurentPoly({1: 0}).is_zero()


def test_lspace_torsion_matches_per_index_sums():
    polys = [torus_alexander(p, q) for p in range(2, 7) for q in range(p + 1, 30) if gcd(p, q) == 1]
    # every torus knot of genus <= 30
    polys += [
        torus_alexander(p, q)
        for p in range(2, 62)
        for q in range(p + 1, 62)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60
    ]
    polys += [
        alexander(parse(text))
        for text in [
            "cable(2,1,T(2,3))",
            "cable(3,2,T(2,5))",
            "cable(2,5,cable(3,1,T(3,4)))",
            "cable(5,3,T(2,3) # T(2,5))",
            "O",
        ]
    ]
    refused = [LaurentPoly({1: 2, 0: -3, -1: 2}), torus_alexander(2, 3) ** 2]
    forms = []
    for poly in polys + refused:
        g = poly.degree
        form = all(s in (0, 1) for s in accumulate(poly.coeff(k) for k in range(g, 0, -1)))
        if form:
            assert lspace_torsion(poly) == tuple(torsion_coefficient(poly, j) for j in range(g + 1))
        else:
            assert lspace_torsion(poly) is None, poly
        forms.append(form)
    assert forms[-2:] == [False, False] and forms.count(False) >= 3 and sum(forms) >= 60


def test_torus_alexander_matches_division():
    # every coprime 2 <= p < q up to genus 60, and the largest T(2,q) that
    # the genus limit accepts
    pairs = [
        (p, q)
        for p in range(2, 122)
        for q in range(p + 1, 122)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 120
    ]
    assert len(pairs) == 172
    for p, q in pairs + [(2, 1025)]:
        got = torus_alexander(p, q)
        assert got == torus_alexander_by_division(p, q) == alexander_torus_division(p, q), (p, q)
        assert got == torus_alexander(q, p) == torus_alexander(p, -q)
