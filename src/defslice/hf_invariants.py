"""Concordance invariants driven by the surgery correction-term calculus.

Computes tau, the V-sequence, nu+, d1, lens-space correction terms and
Ni-Wu surgery correction terms.  Values are exact integers or rationals
where the rule system pins them, and sound integer/rational intervals
otherwise: every interval is a guaranteed enclosure of the true invariant
under the certificate axioms, so "unknown" is a wide interval, never a
sentinel.

Rules used, besides per-atom certificates:
  * L-space atoms: V_j equals the j-th torsion coefficient of Alexander.
  * Wu's cabling formula (without the spurious factor of 2 in front of
    the maximum) for cables with q >= 1.
  * Connected-sum subadditivity V_{m+n}(K # J) <= V_m(K) + V_n(J) and the
    derived lower bound V_0(A # B) >= V_0(A) - V_0(B*), which is optimal
    with a single summand as A (proof at Evaluator._sum_lower_v0).
  * Monotonicity V_k - 1 <= V_{k+1} <= V_k, closed to a fixed point.
  * V_k = 0 for k at or above a derivable genus bound.
  * The Whitehead-double substitution axiom, for V_0/nu+ queries only.
  * Hedden's cabling formula tau(J_{p,q}) = p*tau(J) + (p-1)(q-1)/2 when
    tau of the companion equals its genus bound (proof at Evaluator._tau).
  * tau <= nu+ and tau(K) = -tau(K*) for interval fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate, repeat
from math import gcd, inf
from operator import add, gt, itemgetter

from .certificates import _reduce_normal, resolve_db
from .knotexpr import (
    Atom,
    Cable,
    Mirror,
    Sum,
    alexander,
    check_positive_cables,
    flip,
    normalize,
)
from .laurent import LaurentPoly, torsion_prefix, torus_alexander
from .signatures import SigFn, sigma


class ContradictionError(ValueError):
    """An intersection of constraints came out empty."""


@dataclass(frozen=True)
class _Interval:
    """Closed interval; an unbounded end is -math.inf or math.inf.

    Every finite end is an exact int or Fraction.  An infinite end enters
    only through +, max or min with an infinite operand, so no finite
    value becomes a float, and no sum ever adds -inf to inf: lower ends
    are finite or -inf, upper ends finite or inf.  Adding inf to a finite
    end converts it to a float first, so finite ends must stay below
    2**1024; the limits of knotexpr.check_size, which parse, load_registry
    and composite_cable_obstruction apply, keep every number far below it.
    """

    lo: object
    hi: object

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise ValueError(f"interval {self} is not exact")
        return self.lo

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class IntInterval(_Interval):
    """Closed integer interval; an unbounded end is -inf or inf."""

    lo: int | float
    hi: int | float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ContradictionError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, v: int) -> "IntInterval":
        return cls(v, v)

    def __add__(self, other: "IntInterval") -> "IntInterval":
        return IntInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "IntInterval":
        return IntInterval(-self.hi, -self.lo)

    def intersect(self, other: "IntInterval") -> "IntInterval":
        return IntInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "IntInterval") -> "IntInterval":
        """Enclosure of max(x, y) over x in self, y in other."""
        return IntInterval(max(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class RatInterval(_Interval):
    """Closed rational interval; an unbounded end is -inf or inf."""

    lo: Fraction | float
    hi: Fraction | float


@dataclass(frozen=True)
class VSeq:
    """Interval-valued V-sequence: a closed prefix and the tail it implies.

    entries[k] encloses V_k for k < len(entries).  Past the prefix only
    monotonicity constrains V_k, so V_k lies in [max(0, lo - d), hi] for
    the last entry [lo, hi] and d the distance from it.  Under a genus
    bound g, _close materializes the prefix through index g with V_g = 0
    exactly, so the same rule gives V_k = 0 for every k >= g.
    """

    entries: tuple

    def at(self, k: int) -> IntInterval:
        if k < 0:
            raise ValueError("V-sequence index must be >= 0")
        if k < len(self.entries):
            return self.entries[k]
        last = self.entries[-1]
        d = k - (len(self.entries) - 1)
        return IntInterval(max(0, last.lo - d), last.hi)

    def first_possible_zero(self) -> int:
        for k, iv in enumerate(self.entries):
            if iv.lo == 0:
                return k
        return len(self.entries) - 1 + self.entries[-1].lo

    def first_certain_zero(self) -> int | float:
        """Least k with V_k certainly 0, or inf when no k is certain."""
        for k, iv in enumerate(self.entries):
            if iv.hi == 0:
                return k
        return inf


def _close(entries, genus) -> VSeq:
    """Monotonicity closure: V_k >= 0, V_{k+1} <= V_k <= V_{k+1} + 1.

    Under a finite genus bound g, V_k = 0 for k >= g: the prefix is
    materialized through index g with those entries 0, so the backward
    pass propagates the zero into the prefix.  genus is inf when unknown.
    """
    n = len(entries)
    length = max(n, 1, genus + 1 if genus < inf else 0)
    los = [max(iv.lo, 0) for iv in entries] + [0] * (length - n)
    his = [iv.hi for iv in entries] + [inf] * (length - n)
    for k in range(min(genus, length), length):
        if los[k] > 0 or his[k] < 0:
            raise ContradictionError(
                f"V_{k} constrained to {entries[k]} but the tail is zero"
            )
        los[k] = his[k] = 0
    # The upper and the lower bounds are independent difference constraints
    # along a path, with weights 0 one way and 1 the other; the tightest
    # bound at k comes from a monotone walk, so one forward and one backward
    # sweep reach the fixed point.
    for k in range(1, length):
        if his[k] > his[k - 1]:
            his[k] = his[k - 1]
        if los[k] < los[k - 1] - 1:
            los[k] = los[k - 1] - 1
    for k in range(length - 2, -1, -1):
        if his[k] > his[k + 1] + 1:
            his[k] = his[k + 1] + 1
        if los[k] < los[k + 1]:
            los[k] = los[k + 1]
    if any(map(gt, los, his)):
        raise ContradictionError("V-sequence bounds are inconsistent")
    return VSeq(tuple(map(IntInterval, los, his)))


def wu_phi(p: int, q: int, i: int) -> int:
    """phi_{p,q}(i) = (i - (p-1)(q-1)/2) mod q, for 0 <= i <= pq/2."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p,q >= 1, got ({p},{q})")
    if i < 0 or 2 * i > p * q:
        raise ValueError(f"index {i} outside 0 <= i <= {p}*{q}/2")
    return (i - (p - 1) * (q - 1) // 2) % q


@lru_cache(maxsize=None)
def _lens_raw(p: int, q: int, i: int) -> Fraction:
    # Two-term recursion descending the Euclidean algorithm; O(log p) depth.
    if p == 1:
        return Fraction(0)
    return (
        Fraction(-1, 4)
        + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
        - _lens_raw(q, p % q, i % q)
    )


def lens_d(p: int, q: int, i: int) -> Fraction:
    """Correction term d of p/q-surgery on the unknot at Spin^c label i.

    Oriented as p/q-surgery on the unknot, so that for integer surgery
    d(L(p,1), i) = ((2i - p)^2 - p) / (4p); in particular d(S^3_2, 0) = 1/4.
    """
    if p < 1 or q < 1:
        raise ValueError(f"need p, q > 0, got ({p},{q})")
    if gcd(p, q) != 1:
        raise ValueError(f"need gcd(p,q)=1, got ({p},{q})")
    if i < 0 or i > p - 1:
        raise ValueError(f"Spin^c label {i} outside 0..{p - 1}")
    return _lens_raw(p, q, i)


def _lspace_vseq(alex: LaurentPoly, g: int) -> VSeq:
    # An L-space knot of genus g: V_j is the j-th torsion coefficient.
    return _close([IntInterval.exact(t) for t in torsion_prefix(alex, g)], g)


def _cert_vseq(v0, genus) -> VSeq:
    # A certificate's V_0, or [0, inf] without one, closed under the genus bound.
    return _close([IntInterval(0, inf) if v0 is None else IntInterval.exact(v0)], genus)


@lru_cache(maxsize=None)
def _torus_vseq(p: int, q: int) -> VSeq:
    # Exact V-sequence of the positive torus knot T(p,q), q >= 1.
    return _lspace_vseq(torus_alexander(p, q), (p - 1) * (q - 1) // 2)


def _settle(s: VSeq) -> int:
    """Least k with hi of V_k equal to the last entry's hi: the upper
    bounds of s are constant from k on."""
    last = s.entries[-1].hi
    return next(k for k, iv in enumerate(s.entries) if iv.hi == last)


def _upper(s: VSeq, n: int) -> list:
    """hi of V_0..V_{n-1} as s.at gives them."""
    his = [iv.hi for iv in s.entries[:n]]
    return his + [his[-1]] * (n - len(his))


_MISSING = object()


def _memoized(method):
    """Cache method(self, e) in the session's one memo table, keyed by
    (method name, e); a call that raises stores nothing."""
    rule = method.__name__

    @wraps(method)
    def cached(self, e):
        key = (rule, e)
        res = self._memo.get(key, _MISSING)
        if res is _MISSING:
            res = self._memo[key] = method(self, e)
        return res

    return cached


class Evaluator:
    """One evaluation session: one memo table over an immutable database.

    Every per-expression result of the session (genus bound, V-sequence,
    tau, nu+, signature function, Alexander polynomial) is computed once
    and kept in that table.  An Evaluator is not thread-safe; the
    module-level functions make a fresh one per call, which is always safe.
    Reusing an instance across the queries of one report or suite shares
    that work between them.  The public rules take any expression through
    _normal, which normalizes it and checks its cable signs once; the rules
    below read only normal input.
    """

    def __init__(self, db=None):
        self.db = resolve_db(db)
        self._memo = {}

    @_memoized
    def _normal(self, e):
        e = normalize(e)
        check_positive_cables(e)
        return e

    # -- genus bound -------------------------------------------------

    @_memoized
    def _genus(self, e):
        # inf when some atom's certificate has no genus
        if isinstance(e, Atom):
            g = self.db.get(e.name).genus
            return inf if g is None else g
        if isinstance(e, Mirror):
            return self._genus(e.child)
        if isinstance(e, Sum):
            return sum(map(self._genus, e.parts))
        if isinstance(e, Cable):
            return e.p * self._genus(e.companion) + (e.p - 1) * (e.q - 1) // 2
        raise TypeError(f"not a knot expression: {e!r}")

    def genus_bound(self, e):
        """Upper bound for the genus (exact for certificate-complete input);
        inf when some atom's certificate has no genus."""
        return self._genus(self._normal(e))

    # -- V-sequence ---------------------------------------------------

    @_memoized
    def _vseq_of(self, e):
        if isinstance(e, Atom):
            return self._vseq_atom(e)
        if isinstance(e, Mirror):
            return self._vseq_mirror(e)
        if isinstance(e, Sum):
            return self._vseq_sum(e)
        if isinstance(e, Cable):
            return self._vseq_cable(e)
        raise TypeError(f"not a knot expression: {e!r}")

    def _vseq_atom(self, e):
        cert = self.db.get(e.name)
        if cert.lspace:
            return _lspace_vseq(cert.alexander, cert.genus)
        return _cert_vseq(cert.v0, self._genus(e))

    def _vseq_mirror(self, e):
        # a mirrored atom has its certificate's v0_mirror; a mirrored cable
        # has no rule, only the genus tail
        c = e.child
        v0 = self.db.get(c.name).v0_mirror if isinstance(c, Atom) else None
        return _cert_vseq(v0, self._genus(c))

    def _vseq_sum(self, e):
        """Upper bounds from V_{m+n}(K # J) <= V_m(K) + V_n(J), folded over
        the summands; lower bounds from _sum_lower_v0 and the closure.

        The upper sequence of the sum is the min-plus convolution of the
        summands' upper sequences, his[k] = min over m + n = k of
        hi_A[m] + hi_B[n].  A closed summand B's upper sequence is constant
        from its settle index w = _settle(B) on: hi_B[n] = hi_B[w] for every
        n >= w, as the tail rule repeats the last entry's hi.  (When V_g of
        B is certainly 0, w = g.)  Adding B only needs the splits
        n <= min(k, w):

          * A closed sequence is nonincreasing (+inf only in a prefix), and
            so is the convolution of two nonincreasing sequences: for
            m <= k, hi_A[m] + hi_B[k+1-m] <= hi_A[m] + hi_B[k-m], so
            his[k+1] <= his[k].  By induction every accumulated his is
            nonincreasing.
          * So a split n > w gives his[k-n] + hi_B[w] >= his[k-w] + hi_B[w],
            the term of the split n = w, and cannot set the minimum.

        Min-plus convolution is commutative and associative, and his[k]
        reads only indices <= k, so the length-L prefixes may be folded in
        any order; the fold starts from the summand with the widest window,
        whose L * w term then drops out.  The cost is L times the sum of
        the other windows instead of r * L^2 over r summands.

        Under a genus bound g the prefix is L = g entries long, and _close
        adds V_g = 0.  Without one, L is the summands' prefix lengths added
        up: the convolution is constant from the sum of their settle
        indices on (each split with every n_i >= w_i attains the sum of the
        constant hi, and none goes below it), which is less than L, so the
        prefix holds every upper bound the rule gives and its tail is exact.
        """
        parts = e.parts
        seqs = [self._vseq_of(p) for p in parts]
        g = self._genus(e)
        length = max(g, 1) if g < inf else max(2, sum(len(s.entries) for s in seqs))
        folds = sorted(
            ((min(_settle(s), length - 1), s) for s in seqs),
            key=itemgetter(0),
            reverse=True,
        )
        his = _upper(folds[0][1], length)
        for window, s in folds[1:]:
            nxt = _upper(s, window + 1)
            out = [h + nxt[0] for h in his]
            for n in range(1, len(nxt)):
                out[n:] = map(min, out[n:], map(add, his, repeat(nxt[n])))
            his = out
        lo0 = self._sum_lower_v0(parts)
        entries = [IntInterval(lo0 if k == 0 else 0, h) for k, h in enumerate(his)]
        return _close(entries, g)

    def _sum_lower_v0(self, parts):
        """Best lower bound on V_0 of the sum from V_0(A # B) >= V_0(A) - V_0(B*).

        Over the two-block partitions (A, B) of the summands, the optimum is

            lo = max(0, max_i [lo0(p_i) - sum_{j != i} hi0(p_j*)]),

        where a term with an infinite hi0 is -inf and drops out.  The sum
        over j != i is read from prefix and suffix sums, not as the total
        minus hi0(p_i*), which would be inf - inf when that hi0 is infinite.

        Proof that a single summand in A suffices: the closure is a min-plus
        convolution with the kernel max(0, d), which is idempotent, so the
        fold of closed sequences is already closed at V_0 and the closed hi0
        of a sum is the sum of the hi0 of its parts.  If lo(A) itself comes
        from the rule applied to A = A1 u A2, then

            lo(A) - hi0(B*) <= lo(A1) - hi0(A2*) - hi0(B*)
                             = lo(A1) - hi0((A2 u B)*),

        and lo(A) = 0 gives a term <= 0.  By induction on |A|, a singleton
        A attains the optimum.
        """
        his = [self._vseq_of(flip(p)).at(0).hi for p in parts]
        before = list(accumulate(his, initial=0))
        after = list(accumulate(reversed(his), initial=0))[::-1]
        best = 0
        for i, p in enumerate(parts):
            best = max(best, self._vseq_of(p).at(0).lo - (before[i] + after[i + 1]))
        return best

    def _vseq_cable(self, e):
        cseq = self._vseq_of(e.companion)
        tor = _torus_vseq(e.p, e.q)
        entries = []
        for i in range(e.p * e.q // 2 + 1):
            ph = wu_phi(e.p, e.q, i)
            a = cseq.at(ph // e.p)
            b = cseq.at((e.p + e.q - 1 - ph) // e.p)
            mx = a.max_with(b)
            t = tor.at(i).value
            entries.append(IntInterval(t + mx.lo, t + mx.hi))
        return _close(entries, self._genus(e))

    def v_seq(self, e) -> VSeq:
        """Sound interval V-sequence of the expression."""
        return self._vseq_refined(self._normal(e))

    @_memoized
    def _reduced(self, e):
        # the Whitehead substitution, valid for V_0 and nu+ only
        return _reduce_normal(e)

    @_memoized
    def _vseq_refined(self, e):
        base = self._vseq_of(e)
        red = self._reduced(e)
        if red != e:
            # the substitution axiom transports V_0 exactly
            rb = self._vseq_of(red)
            e0 = base.at(0).intersect(rb.at(0))
            if e0 != base.at(0):
                base = _close([e0] + list(base.entries[1:]), self._genus(e))
        return base

    # -- nu+ and tau --------------------------------------------------

    @_memoized
    def _nu_raw(self, e):
        # nu+ bounds from the V-sequence alone (no tau refinement)
        seqs = [self._vseq_of(e)]
        red = self._reduced(e)
        if red != e:
            seqs.append(self._vseq_of(red))
        lo = max(s.first_possible_zero() for s in seqs)
        hi = min(s.first_certain_zero() for s in seqs)
        return IntInterval(lo, hi)  # lo > hi means inconsistent certificates

    def _tau_window(self, e):
        # fallback enclosure from tau <= nu+ and tau(K) = -tau(K*)
        hi = self._nu_raw(e).hi
        return IntInterval(-self._nu_raw(flip(e)).hi, hi)

    @_memoized
    def _tau(self, e):
        if isinstance(e, Atom):
            cert = self.db.get(e.name)
            if cert.tau is not None:
                return IntInterval.exact(cert.tau)
            return self._tau_window(e)
        if isinstance(e, Mirror):
            return -self._tau(e.child)
        if isinstance(e, Sum):
            acc = IntInterval.exact(0)
            for p in e.parts:
                acc = acc + self._tau(p)
            if not acc.is_exact:
                acc = acc.intersect(self._tau_window(e))
            return acc
        if isinstance(e, Cable):
            # tau(J_{p,q}) = p*tau(J) + (p-1)(q-1)/2 when tau(J) = g(J)
            # (Hedden).  tau <= g <= the genus bound, so a tau that equals
            # the companion's bound proves tau(J) = g(J), and the formula
            # then gives p*g(J) + (p-1)(q-1)/2, which is the cable's bound.
            t = self._tau(e.companion)
            if t.is_exact and t.lo == self._genus(e.companion):
                return IntInterval.exact(self._genus(e))
            return self._tau_window(e)
        raise TypeError(f"not a knot expression: {e!r}")

    def tau(self, e) -> IntInterval:
        """tau: exact where the homomorphism/cabling rules apply, else an enclosure."""
        return self._tau(self._normal(e))

    def nu_plus(self, e) -> IntInterval:
        """nu+ = min{k >= 0 : V_k = 0}, enclosed from the V-sequence and tau."""
        e = self._normal(e)
        raw = self._nu_raw(e)
        lo = max(raw.lo, self._tau(e).lo, 0)
        if lo > raw.hi:
            raise ContradictionError(
                "certificate data inconsistent: tau lower bound exceeds the nu+ upper bound"
            )
        return IntInterval(lo, raw.hi)

    # -- classical invariants: the module functions, once per expression

    @_memoized
    def sigma(self, e) -> SigFn:
        """Levine-Tristram signature function, as signatures.sigma."""
        return sigma(e, self.db)

    @_memoized
    def alexander(self, e) -> LaurentPoly:
        """Alexander polynomial, as knotexpr.alexander."""
        return alexander(e, self.db)

    def d1(self, e) -> IntInterval:
        """d of +1-surgery: d1 = -2*V_0, always <= 0 and even where exact."""
        v0 = self.v_seq(e).at(0)
        return IntInterval(-2 * v0.hi, -2 * v0.lo)

    def surgery_d(self, e, p: int, q: int, i: int) -> RatInterval:
        """Correction term of p/q-surgery on the expression at Spin^c label i.

        d(S^3_{p/q}(K), i) = d(S^3_{p/q}(O), i)
                             - 2 max{V_{floor(i/q)}, V_{floor((p+q-1-i)/q)}}.
        """
        base = lens_d(p, q, i)  # validates p, q, i
        s = self.v_seq(e)
        mx = s.at(i // q).max_with(s.at((p + q - 1 - i) // q))
        return RatInterval(base - 2 * mx.hi, base - 2 * mx.lo)


def _as_evaluator(db) -> Evaluator:
    return db if isinstance(db, Evaluator) else Evaluator(db)


def v_seq(e, db=None) -> VSeq:
    return _as_evaluator(db).v_seq(e)


def tau(e, db=None) -> IntInterval:
    return _as_evaluator(db).tau(e)


def nu_plus(e, db=None) -> IntInterval:
    return _as_evaluator(db).nu_plus(e)


def d1(e, db=None) -> IntInterval:
    return _as_evaluator(db).d1(e)


def surgery_d(e, p: int, q: int, i: int, db=None) -> RatInterval:
    return _as_evaluator(db).surgery_d(e, p, q, i)


def genus_bound(e, db=None):
    return _as_evaluator(db).genus_bound(e)
