"""Exact integer Laurent polynomial arithmetic.

Knot Alexander polynomials are kept in the symmetric normal form
a_i = a_{-i} with value 1 at t = 1.  All operations are exact.  A product
of one or two factors is a dict product (LaurentPoly.__mul__); a product
of powers, as a connected sum's Alexander polynomial and every
LaurentPoly.__pow__ are, is one packed-integer product (product).
lspace_torsion tests the L-space form and reads V_j = t_j in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import gcd


class LaurentPoly:
    """Sparse integer Laurent polynomial, stored as {exponent: coefficient}.

    Every stored coefficient is a nonzero int, so a polynomial has exactly
    one dict, which __eq__ and __hash__ compare.  Instances are immutable;
    all arithmetic returns new objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        acc = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for e, a in items:
            if type(e) is not int or type(a) is not int:
                raise TypeError(f"exponent and coefficient must be ints, got {e!r}: {a!r}")
            if a:
                acc[e] = acc.get(e, 0) + a
        object.__setattr__(self, "_c", {e: a for e, a in acc.items() if a})

    @classmethod
    def _of(cls, c):
        """The polynomial with coefficient dict c, taken as it is: every
        value must already be a nonzero int."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_c", c)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def coeff(self, e):
        return self._c.get(e, 0)

    def items(self):
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self._c.items())

    def is_zero(self):
        return not self._c

    @property
    def degree(self):
        """Top exponent, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    @property
    def min_exp(self):
        return min(self._c) if self._c else None

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        out = dict(self._c)
        for e, a in other._c.items():
            out[e] = out.get(e, 0) + a
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        get = out.get
        theirs = tuple(other._c.items())
        for e1, a1 in self._c.items():
            for e2, a2 in theirs:
                k = e1 + e2
                out[k] = get(k, 0) + a1 * a2
        return LaurentPoly._of({k: a for k, a in out.items() if a})

    def __pow__(self, k):
        """self ** k for an int k >= 0: product([(self, k)])."""
        return product([(self, k)])

    def shift(self, k):
        """Multiply by t**k."""
        return LaurentPoly({e + k: a for e, a in self._c.items()})

    def subst_power(self, p):
        """Substitute t -> t**p."""
        return LaurentPoly({e * p: a for e, a in self._c.items()})

    def eval_at_one(self):
        return sum(self._c.values())

    def is_symmetric(self):
        return all(self.coeff(-e) == a for e, a in self._c.items())

    def pretty(self):
        if not self._c:
            return "0"
        parts = []
        for e, a in sorted(self._c.items(), reverse=True):
            mag = abs(a)
            if e == 0:
                term = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"


def product(pairs) -> LaurentPoly:
    """The product of poly ** k over the (poly, k) pairs, each k an int >= 0,
    by Kronecker substitution: one big-int product at t = 2**(8w).

    A coefficient of the product is at most B = prod(L1(poly) ** k) in
    absolute value, L1 the sum of the absolute coefficients, since the L1
    norm is submultiplicative.  The width w, in bytes, is the least with
    B < 2**(8w-1), so every coefficient lies in (-2**(8w-1), 2**(8w-1)),
    each factor's coefficients too.  Each factor, with its lowest exponent
    shifted out, is packed once as the int P(2**(8w)), whatever its k: its
    coefficients offset by h = 2**(8w-1) are digits in [1, 2**(8w)), joined
    as bytes, and the offset (h in every digit) is taken off again.  Those
    ints multiply exactly to V = sum c_i 2**(8wi) over the product's
    coefficients c_i.  Adding the offset back makes every digit c_i + h lie
    in [1, 2**(8w)), so no digit carries into the next, and the digits of
    V + offset read off every c_i in one pass.  The exponents are the
    digit index plus the lowest exponents, each times its k, added up.
    """
    factors = []
    for poly, k in pairs:
        if type(k) is not int or k < 0:
            raise ValueError(f"exponent must be an int >= 0, got {k!r}")
        if k:
            factors.append((poly._c, k))
    if not factors:
        return LaurentPoly.one()
    if not all(c for c, _ in factors):
        return LaurentPoly.zero()
    bound = 1
    for c, k in factors:
        bound *= sum(map(abs, c.values())) ** k
    w = (bound.bit_length() + 8) // 8
    half = 1 << (8 * w - 1)
    # h as one w-byte little-endian digit; the offset of n digits is unit * n
    unit = half.to_bytes(w, "little")
    value = 1
    low = digits = 0
    for c, k in factors:
        lo = min(c)
        span = max(c) - lo + 1
        row = [unit] * span
        for e, a in c.items():
            row[e - lo] = (a + half).to_bytes(w, "little")
        packed = int.from_bytes(b"".join(row), "little") - int.from_bytes(unit * span, "little")
        value *= packed**k
        low += lo * k
        digits += (span - 1) * k
    digits += 1
    size = digits * w
    buf = (value + int.from_bytes(unit * digits, "little")).to_bytes(size, "little")
    read = map(int.from_bytes, [buf[i : i + w] for i in range(0, size, w)], repeat("little"))
    return LaurentPoly._of({e: a - half for e, a in zip(count(low), read) if a != half})


def symmetric_normalized(p: LaurentPoly) -> LaurentPoly:
    """Recenter so a_i = a_{-i} and fix the sign so the value at t=1 is 1.

    Raises ValueError when no such normalization exists.
    """
    if p.is_zero():
        raise ValueError("zero polynomial cannot be normalized")
    lo, hi = p.min_exp, p.degree
    if (lo + hi) % 2:
        raise ValueError("polynomial cannot be centered symmetrically")
    c = p.shift(-(lo + hi) // 2)
    if not c.is_symmetric():
        raise ValueError("polynomial is not palindromic")
    v = c.eval_at_one()
    if v == 1:
        return c
    if v == -1:
        return -c
    raise ValueError(f"value at t=1 is {v}, expected +-1")


@lru_cache(maxsize=None)
def torus_alexander(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p,q)-torus knot, symmetric normalized.

    Read from the semigroup S = <p, q> = {a*p + b*q : a, b >= 0}.  Each
    s in S is a*p + b*q with a >= 0 and 0 <= b < p in exactly one way, so

        sum_{s in S} t^s = (1 - t^(pq)) / ((1 - t^p)(1 - t^q)),

    and (1 - t) times it is (t^(pq)-1)(t-1)/((t^p-1)(t^q-1)), the
    Alexander polynomial of degree 2g = (p-1)(q-1).  Every n >= 2g lies in
    S, so the series is sum_{s in S, s < 2g} t^s + t^(2g)/(1 - t) and

        Delta(t) = t^(2g) + (1 - t) * sum_{s in S, s < 2g} t^s:

    as 2g is in S and 2g - 1 is not, the coefficient of t^n is
    [n in S] - [n-1 in S] for 0 <= n <= 2g.  A sieve over n <= 2g finds S
    in O(pq) steps with no division; shifting by t^(-g) centres it.

    Trivial cases (p = 1 or |q| <= 1) give 1.  The polynomial does not see
    mirroring, so q < 0 is folded to |q|.
    """
    q = abs(q)
    if p < 1:
        raise ValueError("torus parameter p must be >= 1")
    if p == 1 or q <= 1:
        return LaurentPoly.one()
    if gcd(p, q) != 1:
        raise ValueError(f"torus parameters must be coprime, got ({p},{q})")
    g2 = (p - 1) * (q - 1)
    coeffs = {}
    in_s = []
    for n in range(g2 + 1):
        in_s.append(n == 0 or (n >= p and in_s[n - p]) or (n >= q and in_s[n - q]))
        prev = n > 0 and in_s[n - 1]
        if in_s[n] != prev:
            coeffs[n - g2 // 2] = 1 if in_s[n] else -1
    return LaurentPoly(coeffs)


def lspace_torsion(poly: LaurentPoly) -> tuple | None:
    """(t_0, ..., t_g), g the top exponent (0 for the zero polynomial), in
    one pass from the top down, if poly has the L-space form; else None.

    t_j = sum_{i>=1} i*a_{j+i}, so t_g = 0 and t_j - t_{j+1} is the suffix
    sum s_j = a_g + ... + a_{j+1}.  The L-space form is s_j in {0, 1} for
    every j >= 0 (the nonzero coefficients are +-1 and alternate in sign
    from +1 at the top), and an L-space knot has it, with V_j = t_j
    (Ozsvath-Szabo).  Then t falls by 0 or 1 per step to 0 at g, so it is
    closed under the genus g: hf_invariants._close returns it as it is.
    """
    g = poly.degree or 0
    out = [0] * (g + 1)
    t = s = 0
    for j in range(g - 1, -1, -1):
        s += poly.coeff(j + 1)
        if s not in (0, 1):
            return None
        t += s
        out[j] = t
    return tuple(out)


def vanishes_at_unit_root(poly: LaurentPoly, x) -> bool:
    """Exact test of poly(e^(2*pi*i*x)) == 0 for rational x (an int or a
    Fraction; anything else raises TypeError).

    Let n be the reduced denominator of x.  A degree test comes first.  The
    n-th cyclotomic polynomial Phi_n is irreducible over Q, of degree
    phi(n), and has e^(2*pi*i*x) as a root, so a nonzero poly vanishing
    there has Phi_n dividing t^(-min exp) * poly, whose degree is the span
    (max exp - min exp) of poly: phi(n) <= span.  So phi(n) > span means
    no root, with no fold.  The zero polynomial vanishes everywhere.

    Otherwise fold poly modulo t^n - 1 into g, which agrees with poly at
    every n-th root of unity w.  For each prime p | n and s = n/p, the step
    g -> p*g - h, where h[i] sums g over the coset i + sZ/nZ, multiplies
    g(w) by p - sum_{k<p} w^(ks): by 0 when the order of w divides n/p, by
    p otherwise.  Every proper divisor of n divides some n/p, so in the end
    g(w) = 0 at the roots of order below n and g(w) = (prod p) * poly(w) at
    the primitive ones.  The Fourier transform on Z/n is invertible, so
    g == 0 iff poly vanishes at every primitive n-th root, that is (poly is
    rational, and Galois conjugation permutes those roots transitively) iff
    it vanishes at e^(2*pi*i*x).
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"angle must be an int or a Fraction, got {x!r}")
    c = poly._c
    if not c:
        return True
    n = x.denominator
    primes = _prime_factors(n)
    phi = n
    for p in primes:
        phi = phi // p * (p - 1)
    if phi > max(c) - min(c):
        return False
    g = [0] * n
    for e, a in c.items():
        g[e % n] += a
    for p in primes:
        s = n // p
        h = [sum(g[r::s]) for r in range(s)] * p
        g = [p * a - b for a, b in zip(g, h)]
    return not any(g)


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, in increasing order."""
    primes, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes
