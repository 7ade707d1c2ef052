"""The root-of-unity test against cyclotomic division and against sympy;
the one-pass torsion coefficients against their defining sums; the
semigroup torus Alexander polynomials against long division."""

import random
from fractions import Fraction
from math import gcd

from defslice.knotexpr import alexander, parse
from defslice.laurent import LaurentPoly, torsion_prefix, torus_alexander, vanishes_at_unit_root

from oracles import (
    alexander_torus_division,
    cyclotomic,
    monomial,
    torsion_coefficient,
    torus_alexander_by_division,
    vanishes_by_cyclotomic,
    vanishes_by_sympy,
)

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


def test_torsion_prefix_matches_per_index_sums():
    polys = [torus_alexander(p, q) for p in range(2, 7) for q in range(p + 1, 30) if gcd(p, q) == 1]
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
    for poly in polys:
        n = poly.degree + 2  # past the top degree, where t_j = 0
        assert torsion_prefix(poly, n) == [torsion_coefficient(poly, j) for j in range(n)]
        assert torsion_prefix(poly, 1) == [torsion_coefficient(poly, 0)]


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
