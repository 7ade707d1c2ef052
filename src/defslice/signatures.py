"""Levine-Tristram signature functions as exact step functions.

Angles are rationals x in (0, 1/2], parameterizing omega = e^(2*pi*i*x);
the other half of the circle is implied by sigma(conj(omega)) = sigma(omega).
A SigFn stores its jump list; values are defined only at regular points,
and a query at a jump point raises with both one-sided limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .certificates import CertificateGapError, resolve_db
from .knotexpr import (
    Atom,
    Cable,
    CableSignError,
    Mirror,
    SizeLimitError,
    Sum,
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


@dataclass(frozen=True)
class SigFn:
    """Piecewise-constant function on (0, 1/2] with value 0 near 0+.

    jumps is a sorted tuple of (x, delta) with rational x in (0, 1/2] and
    nonzero even delta; the value at regular x is the sum of deltas at
    jump points below x.
    """

    jumps: tuple = ()

    def __post_init__(self):
        prev = Fraction(0)
        for x, delta in self.jumps:
            if not (0 < x <= HALF):
                raise ValueError(f"jump at {x} outside (0, 1/2]")
            if x <= prev:
                raise ValueError("jumps must be strictly increasing")
            if delta == 0 or delta % 2:
                raise ValueError(f"jump deltas must be even and nonzero, got {delta}")
            prev = x

    @classmethod
    def from_deltas(cls, deltas) -> "SigFn":
        """The function whose jump at x is the sum of the deltas that the
        (x, delta) pairs give at x; sums that cancel drop out."""
        acc = {}
        for x, d in deltas:
            acc[x] = acc.get(x, 0) + d
        return cls(tuple(sorted((x, d) for x, d in acc.items() if d)))

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
        whenever 1/2 is not itself a jump point.
        """
        out = []
        acc = 0
        prev = Fraction(0)
        for x, delta in self.jumps:
            if x > prev:
                out.append((prev, x, acc))
            acc += delta
            prev = x
        if prev < HALF:
            out.append((prev, HALF, acc))
        return out


@lru_cache(maxsize=None)
def sigma_torus(p: int, q: int) -> SigFn:
    """Signature function of the positive torus knot T(p,q).

    Counting form: at a regular angle x, each pair (i,j) in
    [1,p-1] x [1,q-1] contributes -1 when i/p + j/q lies in (x, x+1) and
    +1 otherwise; this yields a jump of +2 at s when s < 1 and -2 at s-1
    when s > 1.
    """
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p,q >= 1, got ({p},{q})")
    sums = (Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q))
    jumps = ((s, 2) if s < 1 else (s - 1, -2) for s in sums)
    return SigFn.from_deltas((x, d) for x, d in jumps if x <= HALF)


def _cable_sigma(base, p: int, q: int) -> list:
    """sigma_{K_{p,q}}(omega) = sigma_K(omega^p) + sigma_{T(p,q)}(omega)
    (Litherland), as (x, delta) pairs from the companion's pairs base.

    The angle of omega^p, folded into (0, 1/2], is y = p*x - m on
    [m/p, (m + 1/2)/p] and m + 1 - p*x on [(m + 1/2)/p, (m + 1)/p].  As x
    rises, y climbs past a base jump u at x = (m + u)/p, where sigma_K
    steps by +d, and falls back past it at x = (m + 1 - u)/p, where it
    steps by -d.  At the folds y meets 0 (where sigma_K vanishes on both
    sides) or 1/2 (where both sides see the same value), so they add no
    jump.  The cable's jumps are therefore the torus jumps plus these moved
    base jumps for x <= 1/2; the pairs are left unmerged.
    """
    moved = [
        (x, delta)
        for u, d in base
        for m in range(p)
        for x, delta in (((m + u) / p, d), ((m + 1 - u) / p, -d))
        if x <= HALF
    ]
    return [*sigma_torus(p, q).jumps, *moved]


def sigma(e, db=None) -> SigFn:
    """Signature function of an expression.

    Torus atoms use the counting form; atoms with Alexander polynomial 1
    have identically zero signature; other atoms have no rule and raise
    SignatureUnavailable.  One walk collects the (x, delta) jump pairs of
    the whole expression unmerged, and SigFn.from_deltas merges them once.

    That equals merging at every node, byte for byte.  Each rule is a
    linear map on jump deltas: a sum concatenates its parts' pairs, a
    mirror negates the deltas, and a cable moves each pair (u, d) to the
    pairs ((m + u)/p, d) and ((m + 1 - u)/p, -d) and adds the torus pairs.
    The x <= 1/2 filter of a moved pair depends only on (u, m), so deltas
    at one angle u move together and sum to the same jumps later; and
    from_deltas sums the deltas at each angle and drops zeros, which
    loses nothing that a later rule could read.
    """
    db = resolve_db(db)
    return SigFn.from_deltas(_deltas(normalize(e), db))


def _deltas(e, db):
    # jump pairs of a normal expression; raises at the first offending node
    # in walk order, a cable's own sign before its companion
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return sigma_torus(*tq).jumps
        cert = db.get(e.name)
        if cert.alexander == LaurentPoly.one():
            # no roots on the unit circle, so the signature vanishes
            return ()
        raise SignatureUnavailable(f"atom {e.name!r} has no signature rule")
    if isinstance(e, Mirror):
        return [(x, -d) for x, d in _deltas(e.child, db)]
    if isinstance(e, Sum):
        return [pair for p in e.parts for pair in _deltas(p, db)]
    if isinstance(e, Cable):
        if e.q <= 0:
            raise CableSignError(f"cable with q={e.q} <= 0 has no signature rule")
        return _cable_sigma(_deltas(e.companion, db), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


@dataclass(frozen=True)
class CombinationCheck:
    """Result of the signature independence check."""

    bound: int
    count: int
    dependent: tuple

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
    The vanishing combinations are thus the integer vectors in the left
    kernel of the matrix D = (d_i(x)).  When D has rank n = len(knots),
    that kernel is 0: no nonzero integer combination has identically zero
    signature, at any bound, so the signature functions are linearly
    independent and so are the knots in the concordance group.  All
    (2*bound + 1)^n - 1 nonzero vectors are then accounted for at once.
    Only a rank below n enumerates the box, testing each vector against
    the columns of D in integers; a box of more than MAX_BOX vectors raises
    SizeLimitError, and so does a count of more than MAX_COUNT_DIGITS
    digits, before any signature is computed.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n, side = len(knots), 2 * bound + 1
    limit = 10**MAX_COUNT_DIGITS
    # side^n >= 2^(n * (bits - 1)) refuses a huge box before computing it
    if n * (side.bit_length() - 1) > limit.bit_length() or side**n - 1 >= limit:
        raise SizeLimitError(
            f"the count (2*bound + 1)^{n} - 1 of coefficient vectors has more "
            f"than {MAX_COUNT_DIGITS} digits"
        )
    db = resolve_db(db)
    jumps = [dict(sigma(k, db).jumps) for k in knots]
    points = sorted(set().union(*jumps))
    rows = [[j.get(x, 0) for x in points] for j in jumps]
    count = side**n - 1
    rank = _rank(rows)
    if rank == len(rows):
        return CombinationCheck(bound=bound, count=count, dependent=())
    if count + 1 > MAX_BOX:
        raise SizeLimitError(
            f"signature jumps have rank {rank} < {len(rows)}, and the {count + 1} "
            f"coefficient vectors at bound {bound} are above the limit {MAX_BOX}"
        )
    columns = list(zip(*rows))
    dependent = tuple(
        vec
        for vec in itertools.product(range(-bound, bound + 1), repeat=len(rows))
        if any(vec) and not any(sum(m * d for m, d in zip(vec, col)) for col in columns)
    )
    return CombinationCheck(bound=bound, count=count, dependent=dependent)
