"""Levine-Tristram signature functions as exact step functions.

Angles are rationals x in (0, 1/2], parameterizing omega = e^(2*pi*i*x);
the other half of the circle is implied by sigma(conj(omega)) = sigma(omega).
A SigFn stores its jump list; values are defined only at regular points,
and a query at a jump point raises with both one-sided limits.  sigma
builds it from integer jump numerators over one denominator and converts
each surviving jump to a Fraction once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .certificates import CertificateGapError, resolve_db
from .knotexpr import (
    Atom,
    Cable,
    Mirror,
    SizeLimitError,
    Sum,
    _Record,
    normalize,
    torus_params,
)
from .laurent import LaurentPoly

HALF = Fraction(1, 2)

# Most coefficient vectors signature_combination_check enumerates when the
# jump matrix has rank below n: (2*bound + 1)^n of them, about 3.5 us each.
# `independence` from interpreter start (py3.11, 2-vCPU VM): 3^11 = 177,147
# vectors 0.84 s; past the limit, 5^8 = 390,625 took 1.3 s and 7^7 =
# 823,543 2.2 s, and each further knot multiplies the time by 2*bound + 1.
MAX_BOX = 200_000

# Most expressions signature_combination_check accepts, whatever the bound:
# the Gram form costs up to n^2 steps per jump angle, and its elimination
# about n^3.  `independence` from interpreter start (py3.11, 2-vCPU VM): 64
# expressions took at most 0.38 s on every family tried, the slowest
# T(2,897) # T(2,2j+1) for j = 1..64 (median 0.28 s), whose 896 shared
# jump angles each add 64^2 Gram terms; past the limit, T(2,2j+1) for
# j = 1..n took 0.3 s at n = 160 and 1.0 s at n = 255.
MAX_KNOTS = 64

# Most decimal digits of the combination count (2*bound + 1)^n - 1 that
# signature_combination_check accepts, whatever the rank.  The count is
# printed in decimal, and Python refuses int-to-str conversions longer
# than its per-process limit, which can be lowered to 640 digits but no
# further; 600 digits always print.  `independence 'T(2,3)' 'T(2,5)'
# --bound 10^2200` would print a count of 4,401 digits.
MAX_COUNT_DIGITS = 600


class JumpPointError(ValueError):
    """Signature queried at a jump angle; carries both one-sided limits."""

    def __init__(self, x, left, right):
        self.x = x
        self.left = left
        self.right = right
        super().__init__(
            f"x = {x} is a jump point (left limit {left}, right limit {right})"
        )


class SignatureUnavailable(CertificateGapError):
    """An atom has no signature rule (not a torus knot, Alexander != 1)."""


class SigFn(_Record):
    """Piecewise-constant function on (0, 1/2] with value 0 near 0+.

    jumps is a sorted tuple of (x, delta) with x a Fraction in (0, 1/2] and
    nonzero even delta; the value at regular x is the sum of deltas at
    jump points below x.
    """

    __slots__ = ("jumps",)

    def __init__(self, jumps: tuple = ()):
        # in integers: x = n/d with d > 0, so 0 < x <= 1/2 iff 0 < 2n <= d,
        # and x > pn/pd iff n*pd > pn*d
        pn, pd = 0, 1
        for x, delta in jumps:
            n, d = x.numerator, x.denominator
            if not 0 < 2 * n <= d:
                raise ValueError(f"jump at {x} outside (0, 1/2]")
            if n * pd <= pn * d:
                raise ValueError("jumps must be strictly increasing")
            if delta == 0 or delta % 2:
                raise ValueError(f"jump deltas must be even and nonzero, got {delta}")
            pn, pd = n, d
        object.__setattr__(self, "jumps", jumps)

    @property
    def is_zero(self) -> bool:
        return not self.jumps

    def value(self, x) -> int:
        """Value at a regular rational angle x in (0, 1/2]."""
        x = Fraction(x)
        if not (0 < x <= HALF):
            raise ValueError(f"angle {x} outside (0, 1/2]")
        acc = 0
        for xj, delta in self.jumps:
            if xj < x:
                acc += delta
            elif xj == x:
                raise JumpPointError(x, acc, acc + delta)
            else:
                break
        return acc

    def at_minus_one(self) -> int:
        """Value at omega = -1 (x = 1/2)."""
        return self.value(HALF)

    def pieces(self):
        """(lo, hi, value) triples: value holds on the open interval (lo, hi).

        The last piece ends at 1/2 and its value also holds at x = 1/2
        whenever 1/2 is not itself a jump point.  The constructor keeps the
        jumps strictly increasing in (0, 1/2], so no piece is empty and only
        the last jump needs comparing with 1/2.
        """
        out = []
        acc = 0
        prev = Fraction(0)
        for x, delta in self.jumps:
            out.append((prev, x, acc))
            acc += delta
            prev = x
        if prev < HALF:
            out.append((prev, HALF, acc))
        return out


@lru_cache(maxsize=None)
def _torus_deltas(p: int, q: int) -> tuple:
    """Jump pairs of the positive torus knot T(p,q) over D = p*q.

    Counting form: at a regular angle x, each pair (i,j) in
    [1,p-1] x [1,q-1] contributes -1 when i/p + j/q lies in (x, x+1) and
    +1 otherwise; this yields a jump of +2 at s when s < 1 and -2 at s-1
    when s > 1.  Over D that sum is the integer n = i*q + j*p, which never
    equals D for coprime p and q, so the pair is (n, 2) or (n - D, -2),
    kept when 2n <= D.
    """
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p,q >= 1, got ({p},{q})")
    d = p * q
    sums = (i * q + j * p for i in range(1, p) for j in range(1, q))
    pairs = ((n, 2) if n < d else (n - d, -2) for n in sums)
    return d, tuple((n, delta) for n, delta in pairs if 2 * n <= d)


def _jumps(d: int, pairs) -> SigFn:
    # the one merge and the one conversion to Fraction: sum the deltas at
    # each numerator, drop the zeros, sort, and build each jump n/d once
    acc = {}
    for n, delta in pairs:
        acc[n] = acc.get(n, 0) + delta
    return SigFn(tuple((Fraction(n, d), delta) for n, delta in sorted(acc.items()) if delta))


def _cable_sigma(base, p: int, q: int) -> tuple:
    """sigma_{K_{p,q}}(omega) = sigma_K(omega^p) + sigma_{T(p,q)}(omega)
    (Litherland), as jump pairs (D, pairs) from the companion's base =
    (D_J, pairs), each pair (a, d) standing for a jump d at a/D_J.

    The angle of omega^p, folded into (0, 1/2], is y = p*x - m on
    [m/p, (m + 1/2)/p] and m + 1 - p*x on [(m + 1/2)/p, (m + 1)/p].  As x
    rises, y climbs past a base jump u at x = (m + u)/p, where sigma_K
    steps by +d, and falls back past it at x = (m + 1 - u)/p, where it
    steps by -d.  At the folds y meets 0 (where sigma_K vanishes on both
    sides) or 1/2 (where both sides see the same value), so they add no
    jump.  The cable's jumps are therefore the torus jumps plus these moved
    base jumps for x <= 1/2; the pairs are left unmerged.

    In integers, u = a/D_J moves to (m*D_J + a)/(p*D_J) and to
    ((m + 1)*D_J - a)/(p*D_J) for m in 0..p-1.  Both the moved pairs and
    the torus pairs (over p*q) are written over D = lcm(p*D_J, p*q): one
    turn of y is D/p, a becomes a*s with s = D/(p*D_J), and the moved
    numerators are the progressions a*s + m*D/p and (m + 1)*D/p - a*s,
    cut at 2n <= D.  The cut alone keeps m <= p - 1: the companion's
    pairs lie in (0, 1/2], so a*s <= D/(2p), and 2n <= D gives m < p/2
    upward and m <= (p - 1)/2 downward.
    """
    dj, pairs = base
    dt, torus = _torus_deltas(p, q)
    d = lcm(p * dj, dt)
    turn, t = d // p, d // dt
    # range(..., stop) keeps n <= D // 2, which for an integer n is 2n <= D
    s, stop = turn // dj, d // 2 + 1
    out = [(n * t, delta) for n, delta in torus]
    for a, delta in pairs:
        a *= s
        out += zip(range(a, stop, turn), itertools.repeat(delta))
        out += zip(range(turn - a, stop, turn), itertools.repeat(-delta))
    return d, out


def sigma(e, db=None) -> SigFn:
    """Signature function of an expression.

    Torus atoms use the counting form; atoms with Alexander polynomial 1
    have identically zero signature; other atoms have no rule and raise
    SignatureUnavailable.  One walk collects the jump pairs of the whole
    expression unmerged, as integer numerators n over one denominator D,
    each pair (n, delta) standing for a jump delta at the angle n/D; the
    pairs are then merged once, and each surviving jump is converted to
    Fraction(n, D) once.

    That equals merging Fraction pairs at every node, byte for byte.  Each
    rule is a linear map on jump deltas: a sum concatenates its parts'
    pairs, a mirror negates the deltas, and a cable moves each pair (u, d)
    to the pairs ((m + u)/p, d) and ((m + 1 - u)/p, -d) and adds the torus
    pairs.  The x <= 1/2 filter of a moved pair depends only on (u, m), so
    deltas at one angle u move together and sum to the same jumps later;
    and the merge sums the deltas at each angle and drops zeros, which
    loses nothing that a later rule could read.  The integer form changes
    none of this:
    - n -> n/D is strictly increasing, so equal numerators are equal
      angles and the sort of the numerators is the sort of the angles;
      the per-numerator merge and sort are the per-angle ones;
    - a sum writes its parts over D = lcm(D_i), and n/D_i = (n*D/D_i)/D
      with D/D_i an integer, so the rescaling is exact (so is the cable's,
      _cable_sigma);
    - n/D <= 1/2 iff 2n <= D, as D > 0, so the filter is exact.
    """
    db = resolve_db(db)
    return _jumps(*_deltas(normalize(e), db))


def _deltas(e, db) -> tuple:
    # (D, pairs) of a normal expression; raises at the first atom without
    # a signature rule in walk order
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return _torus_deltas(*tq)
        cert = db.get(e.name)
        if cert.alexander == LaurentPoly.one():
            # no roots on the unit circle, so the signature vanishes
            return 1, ()
        raise SignatureUnavailable(f"atom {e.name!r} has no signature rule")
    if isinstance(e, Mirror):
        d, pairs = _deltas(e.child, db)
        return d, [(n, -delta) for n, delta in pairs]
    if isinstance(e, Sum):
        parts = [_deltas(p, db) for p in e.parts]
        d = lcm(*(dp for dp, _ in parts))
        return d, [(n * (d // dp), delta) for dp, pairs in parts for n, delta in pairs]
    if isinstance(e, Cable):
        return _cable_sigma(_deltas(e.companion, db), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


class CombinationCheck(_Record):
    """Result of the signature independence check."""

    __slots__ = ("bound", "count", "dependent")

    @property
    def independent(self) -> bool:
        return not self.dependent

    def summary(self) -> str:
        if self.independent:
            return f"independent at level {self.bound} ({self.count} combinations checked)"
        vecs = ", ".join(str(v) for v in self.dependent)
        return f"dependent combinations with identically zero signature: {vecs}"


def _rank(rows) -> int:
    """Rank over Q of integer row vectors, by fraction-free elimination."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next(i for i, v in enumerate(pivot) if v)
        reduced = []
        for r in rows:
            r = [pivot[c] * v - r[c] * w for v, w in zip(r, pivot)]
            g = gcd(*r)
            if g:
                reduced.append([v // g for v in r])
        rows = reduced
        rank += 1
    return rank


def signature_combination_check(knots, bound: int, db=None) -> CombinationCheck:
    """Find the coefficient vectors with |m_i| <= bound whose combination
    sum m_i * K_i has identically zero signature function.

    A vanishing combination defeats this concordance-order obstruction.
    A signature function vanishes near 0 and is fixed by its jumps, so
    sum m_i * sigma_i vanishes identically iff sum m_i * d_i(x) = 0 at every
    jump point x, where d_i(x) is the jump of sigma_i at x (0 if none).
    The vanishing combinations are thus the integer vectors v with
    D^T v = 0, D = (d_i(x)) the n x m jump matrix, n = len(knots).  Both
    the rank and the box read the n x n Gram form G = D D^T instead,
    G[i][j] = sum_x d_i(x) * d_j(x), summed one angle at a time over the
    knots that jump there.  G v = 0 iff D^T v = 0: one way is D (D^T v);
    the other, v^T G v = |D^T v|^2 = 0 forces D^T v = 0 over the reals.
    So G and D^T have one kernel, and rank G = n - dim ker = rank D over Q.

    When D has rank n, that kernel is 0: no nonzero integer combination has
    identically zero signature, at any bound, so the signature functions
    are linearly independent and so are the knots in the concordance
    group.  All (2*bound + 1)^n - 1 nonzero vectors are then accounted for
    at once.  Only a rank below n enumerates the box, testing each vector
    against the rows of G in integers.  More than MAX_KNOTS knots, a box of
    more than MAX_BOX vectors, or a count of more than MAX_COUNT_DIGITS
    digits raises SizeLimitError before any signature is computed.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n, side = len(knots), 2 * bound + 1
    if n > MAX_KNOTS:
        raise SizeLimitError(f"{n} expressions, above the limit {MAX_KNOTS}")
    limit = 10**MAX_COUNT_DIGITS
    # side^n >= 2^(n * (bits - 1)) refuses a huge box before computing it
    if n * (side.bit_length() - 1) > limit.bit_length() or side**n - 1 >= limit:
        raise SizeLimitError(
            f"the count (2*bound + 1)^{n} - 1 of coefficient vectors has more "
            f"than {MAX_COUNT_DIGITS} digits"
        )
    db = resolve_db(db)
    at = {}
    for i, k in enumerate(knots):
        for x, d in sigma(k, db).jumps:
            at.setdefault(x, []).append((i, d))
    gram = [[0] * n for _ in range(n)]
    for col in at.values():
        for i, di in col:
            row = gram[i]
            for j, dj in col:
                row[j] += di * dj
    count = side**n - 1
    rank = _rank(gram)
    if rank == n:
        return CombinationCheck(bound=bound, count=count, dependent=())
    if count + 1 > MAX_BOX:
        raise SizeLimitError(
            f"signature jumps have rank {rank} < {n}, and the {count + 1} "
            f"coefficient vectors at bound {bound} are above the limit {MAX_BOX}"
        )
    dependent = tuple(
        vec
        for vec in itertools.product(range(-bound, bound + 1), repeat=n)
        if any(vec) and not any(sum(m * g for m, g in zip(vec, row)) for row in gram)
    )
    return CombinationCheck(bound=bound, count=count, dependent=dependent)
