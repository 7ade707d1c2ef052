"""Concordance invariants driven by the surgery correction-term calculus.

Computes tau, the V-sequence, nu+, d1, lens-space correction terms and
Ni-Wu surgery correction terms.  tau, nu+, d1, each V_k and the surgery
terms are one Interval type, of ints or of Fractions: exact (lo == hi)
where the rule system pins the value, and otherwise a guaranteed
enclosure of the true invariant under the certificate axioms, so
"unknown" is a wide interval, never a sentinel.

The invariants of a knot expression are methods of an Evaluator, one
session with one memo table over a CertificateDB:
Evaluator(db).tau(e).  lens_d and wu_phi read no database and are module
functions.

Rules used, besides per-atom certificates:
  * L-space knots (atoms, Wu's T(p,q)): V_j = t_j, from laurent.lspace_torsion.
  * Wu's cabling formula (without the spurious factor of 2 in front of
    the maximum) for cables, which have q >= 1 in normal form: normalize
    writes a cable with q < 0 as the mirror of a positive one.
  * Connected-sum subadditivity V_{m+n}(K # J) <= V_m(K) + V_n(J) and the
    derived lower bound V_0(A # B) >= V_0(A) - V_0(B*), which is optimal
    with a single summand as A (proof at Evaluator._sum_lower_v0).
  * Monotonicity V_k - 1 <= V_{k+1} <= V_k, closed to a fixed point.
  * V_k = 0 for k at or above a derivable genus bound.
  * The Whitehead-double substitution axiom, for V_0/nu+ queries only;
    the substituted expression's V_0 and nu+ bounds lie inside the
    expression's own and are read in their place (proof at
    Evaluator._vseq_refined).
  * Hedden's cabling formula tau(J_{p,q}) = p*tau(J) + (p-1)(q-1)/2 when
    tau of the companion equals its genus bound (proof at Evaluator._tau).
  * tau <= nu+ and tau(K) = -tau(K*) for interval fallbacks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from itertools import accumulate, repeat
from math import gcd, inf
from operator import add, gt, itemgetter

from .certificates import nu_equiv_reduce, resolve_db
from .knotexpr import (
    Atom,
    Cable,
    Mirror,
    Sum,
    _Record,
    alexander,
    flip,
    normalize,
)
from .laurent import LaurentPoly, lspace_torsion, torus_alexander
from .signatures import SigFn, sigma


class ContradictionError(ValueError):
    """An intersection of constraints came out empty."""


class Interval(_Record):
    """Closed interval of ints or Fractions; an unbounded end is -math.inf
    or math.inf.  An empty interval raises ContradictionError.

    Every finite end is an exact int or Fraction.  An infinite end enters
    only through +, max or min with an infinite operand, so no finite
    value becomes a float, and no sum ever adds -inf to inf: lower ends
    are finite or -inf, upper ends finite or inf.  Adding inf to a finite
    end converts it to a float first, so finite ends must stay below
    2**1024; the limits of knotexpr.check_size, which parse, load_registry
    and composite_cable_obstruction apply, keep every number far below it.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | Fraction | float, hi: int | Fraction | float):
        if lo > hi:
            raise ContradictionError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, v) -> "Interval":
        return cls(v, v)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise ValueError(f"interval {self} is not exact")
        return self.lo

    def __str__(self):
        return _show(self.lo, self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        """Enclosure of max(x, y) over x in self, y in other."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


def _show(lo, hi) -> str:
    # the printed form of the bounds pair [lo, hi], which may be empty
    return str(lo) if lo == hi else f"[{lo}, {hi}]"


class VSeq(_Record):
    """Interval-valued V-sequence: a closed prefix and the tail it implies.

    lo[k] <= V_k <= hi[k] for k < len(lo): two tuples of the same length,
    of ints, with inf for an unbounded upper end.  Past the prefix only
    monotonicity constrains V_k, so V_k lies in [max(0, lo[-1] - d), hi[-1]],
    read from the last bounds, for d the distance from them.  Under a
    genus bound g the prefix runs through index g with V_g = 0 exactly,
    so the same rule gives V_k = 0 for every k >= g.
    """

    __slots__ = ("lo", "hi")

    def __len__(self):
        return len(self.lo)

    def at(self, k: int) -> Interval:
        if k < 0:
            raise ValueError("V-sequence index must be >= 0")
        last = len(self.lo) - 1
        if k <= last:
            return Interval(self.lo[k], self.hi[k])
        return Interval(max(0, self.lo[-1] - (k - last)), self.hi[-1])

    def first_possible_zero(self) -> int:
        if 0 in self.lo:
            return self.lo.index(0)
        return len(self.lo) - 1 + self.lo[-1]

    def first_certain_zero(self) -> int | float:
        """Least k with V_k certainly 0, or inf when no k is certain."""
        return self.hi.index(0) if 0 in self.hi else inf


def _close(los, his, genus) -> VSeq:
    """Monotonicity closure: V_k >= 0, V_{k+1} <= V_k <= V_{k+1} + 1.

    los and his are the lower and upper bounds of V_0, V_1, ..., of one
    length.  Under a finite genus bound g, V_k = 0 for k >= g: the prefix
    is materialized through index g with those bounds 0, so the backward
    pass propagates the zero into the prefix.  genus is inf when unknown.
    """
    n = len(los)
    for k in range(min(genus, n), n):
        if los[k] > 0 or his[k] < 0:
            raise ContradictionError(
                f"V_{k} constrained to {_show(los[k], his[k])} but the tail is zero"
            )
    length = max(n, 1, genus + 1 if genus < inf else 0)
    los = [max(lo, 0) for lo in los] + [0] * (length - n)
    his = list(his) + [inf] * (length - n)
    for k in range(min(genus, length), length):
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
    return VSeq(tuple(los), tuple(his))


def wu_phi(p: int, q: int, i: int) -> int:
    """phi_{p,q}(i) = (i - (p-1)(q-1)/2) mod q, for 0 <= i <= pq/2."""
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise ValueError(f"need coprime p,q >= 1, got ({p},{q})")
    if i < 0 or 2 * i > p * q:
        raise ValueError(f"index {i} outside 0 <= i <= {p}*{q}/2")
    return (i - (p - 1) * (q - 1) // 2) % q


def _lens_raw(p: int, q: int, i: int) -> tuple:
    # d = num/den, unreduced, from the two-term recursion
    #   d(p, q, i) = -1/4 + (2i + 1 - p - q)^2 / (4pq) - d(q, p mod q, i mod q),
    # which descends the Euclidean algorithm, O(log p) deep; lens_d reduces
    # once.  No cache: one kept across calls only grows with each (p, q, i).
    if p == 1:
        return 0, 1
    num, den = _lens_raw(q, p % q, i % q)
    pq4 = 4 * p * q
    return ((2 * i + 1 - p - q) ** 2 - p * q) * den - pq4 * num, pq4 * den


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
    return Fraction(*_lens_raw(p, q, i))


def _closed_lows(v, n) -> tuple:
    # (max(v - k, 0) for k < n): the closed lower bounds from V_0 >= v
    return (*range(v, max(v - n, 0), -1), *repeat(0, n - v))


def _lspace_vseq(alex: LaurentPoly) -> VSeq:
    # V of an L-space knot, closed as lspace_torsion returns it (proof there)
    t = lspace_torsion(alex)
    return VSeq(t, t)


def _cert_vseq(v0, genus) -> VSeq:
    # A certificate's V_0, or [0, inf] without one, closed under the genus
    # bound g: lo_k = max(v0 - k, 0) and hi_k = min(v0, g - k) for k <= g.
    # Both fall by 0 or 1 per step to 0 at g and lo <= hi, so this is
    # _close([v0], [v0], g).  AtomCertificate refuses a v0 or v0_mirror
    # outside 0..g, and a mirrored cable passes None, so 0 <= lo_0 <= g.
    lo0, top = (0, inf) if v0 is None else (v0, v0)
    if genus == inf:
        return VSeq((lo0,), (top,))
    t = min(top, genus)
    return VSeq(_closed_lows(lo0, genus + 1), (*repeat(t, genus - t), *range(t, -1, -1)))


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
    and kept in that table.  An Evaluator is not thread-safe: make one per
    thread.  Reusing an instance across the queries of one report or suite
    shares that work between them.  db is a CertificateDB or None (the
    default database).  The public rules take any expression through
    knotexpr.normalize, which returns a normal input itself; the rules
    below read only normal input.
    """

    def __init__(self, db=None):
        self.db = resolve_db(db)
        self._memo = {}

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
            return sum(m * self._genus(p) for p, m in self._groups(e.parts))
        if isinstance(e, Cable):
            return e.p * self._genus(e.companion) + (e.p - 1) * (e.q - 1) // 2
        raise TypeError(f"not a knot expression: {e!r}")

    @_memoized
    def _groups(self, parts):
        # the distinct summands of a sum's parts, each with its multiplicity,
        # in order of first appearance; the sum rules read each one once
        counts = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return tuple(counts.items())

    def genus_bound(self, e):
        """Upper bound for the genus (exact for certificate-complete input);
        inf when some atom's certificate has no genus."""
        return self._genus(normalize(e))

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
            return _lspace_vseq(cert.alexander)
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
        hi_A[m] + hi_B[n].  Min-plus convolution is commutative and
        associative, and his[k] reads only indices <= k, so the length-L
        prefixes may be folded in any order, and a summand that appears m
        times is read once and folded in m times.

        A closed summand B's upper sequence is constant from its settle
        index w = hi_B.index(hi_B[-1]) on, the least k whose upper bound
        equals the last one: hi_B[n] = hi_B[w] for every n >= w, as the tail
        rule repeats the last hi.  (When V_g of B is certainly 0, w = g.)
        Adding B only needs the splits n <= min(k, w):

          * A closed sequence is nonincreasing (+inf only in a prefix), and
            so is the convolution of two nonincreasing sequences: for
            m <= k, hi_A[m] + hi_B[k+1-m] <= hi_A[m] + hi_B[k-m], so
            his[k+1] <= his[k].  By induction every accumulated his is
            nonincreasing.
          * So a split n > w gives his[k-n] + hi_B[w] >= his[k-w] + hi_B[w],
            the term of the split n = w, and cannot set the minimum.

        A split n < w whose next step falls, hi_B[n+1] = hi_B[n] - 1, is
        dominated by split n + 1 at every k > n, so it only sets his[k] at
        k = n, to at most his[0] + hi_B[n], and costs O(1):

          * A closed sequence also rises by at most one per step backwards,
            his[j-1] <= his[j] + 1, and so does the convolution of two such
            sequences: if his[k] = hi_A[m] + hi_B[n] with m >= 1, then
            his[k-1] <= hi_A[m-1] + hi_B[n] <= his[k] + 1, and with m = 0
            the split (0, n - 1) gives the same.  A prefix padded with its
            last hi, as the fold's first summand is, keeps both properties.
          * So at k > n, with j = k - n >= 1, split n + 1 gives
            his[j-1] + hi_B[n] - 1 <= his[j] + hi_B[n], split n's term.

        An infinite hi_B[n] passes the test, as inf - 1 == inf, and its split
        adds only inf, so skipping it is sound too.  The skip moves no
        benchmark workload; it pays on the largest sums that parse accepts.
        Without it, in-process on py3.11 and a 2-vCPU Xeon, report
        '64*T(2,17)' --json took 42 ms instead of 23 ms, and
        T(2,3) # T(2,5) # ... # T(2,63) took 43 ms instead of 27 ms.

        A summand that falls by one at every step up to its window costs
        O(1), as part of one shift.  A closed hi_B falls by 0 or 1 per step,
        so hi_B[0] - hi_B[w] == w, an O(1) test, holds exactly when
        hi_B[n] = c - min(n, w) with c = hi_B[0] finite (an infinite
        hi_B[0] fails it).  Two such sequences convolve to one, with c and
        w added: over m + n = k, min(m, w1) + min(n, w2) is at most
        min(k, w1 + w2) and attains it.  So the falling summands, each
        counted with its multiplicity, are one sequence C - min(n, W), and
        folding it into the others' convolution his takes its largest split:

            out[k] = his[k - min(k, W)] + C - min(k, W),

          * since for n < min(k, W), his[k-n-1] <= his[k-n] + 1 makes split
            n + 1 no worse than split n,
          * and for n > W, his[k-n] >= his[k-W] makes split W no worse.

        Every genus-only sequence falls (hi_j = g - j): mirrored torus knots
        and cables, Wh(T(2,3))*, atoms with no v0, and T(2,3) too.  Without
        other summands, his is the shift of the zero sequence, which
        convolves with any nonincreasing sequence to that sequence.

        The other summands take the windowed fold, starting from the one
        with the widest window, whose L * w term then drops out.  The cost
        is L times the sum of their other windows, plus O(L) for the shift,
        instead of r * L^2 over r summands.  A positive T(2, 2g+1), whose hi
        falls every other step, takes half the slice updates.

        Under a genus bound g the prefix has length L = g, and V_g = 0 is
        added.  Without one, L is the summands' prefix lengths added up: the
        convolution is constant from the sum of their settle indices on
        (each split with every n_i >= w_i attains the sum of the constant
        hi, and none goes below it), which is less than L, so the prefix
        holds every upper bound the rule gives and its tail is exact.

        The sequence is built closed, with the lower bounds
        max(lo0 - k, 0) from lo0 = _sum_lower_v0, and is what _close of
        lo0 and his returns:

          * his is nonincreasing and rises by at most one per step
            backwards, as shown above, and V_g = 0 keeps both: at
            k = g - 1, the split with every n_i = g_i except one at
            g_i - 1 gives at most 0 + 1, as each summand's closed hi is 0
            at its genus bound g_i and rises by at most one.
          * lo0 <= his[0], so no consistency check is needed: his[0] is
            the sum of m * hi0(p) over the distinct summands p, each m
            times, every closed hi0 is at least 0, and _sum_lower_v0
            subtracts only such hi0 of mirrors, so lo0 <= max(0, max lo0(p))
            <= max(0, max hi0(p)) <= his[0].  As max(lo0 - k, 0) falls by 0
            or 1 per step, lo0 - k <= his[0] - k <= his[k]: lo <= hi holds
            everywhere.
          * Under g = 0 every summand is (0,), so his = [0], lo0 = 0 and
            the sequence is the one entry V_0 = 0.
        """
        uppers = [(self._vseq_of(p).hi, m) for p, m in self._groups(e.parts)]
        g = self._genus(e)
        length = max(g, 1) if g < inf else max(2, sum(len(hi) * m for hi, m in uppers))
        drop = fall = 0  # C and W of the falling summands
        folds = []
        for hi, m in uppers:
            w = min(hi.index(hi[-1]), length - 1)
            if hi[0] - hi[w] == w:
                drop += m * hi[0]
                fall += m * w
            else:
                folds += [(w, hi)] * m
        if folds:
            folds.sort(key=itemgetter(0), reverse=True)
            first = folds[0][1]
            his = [*first[:length], *repeat(first[-1], length - len(first))]
        else:
            his = [0] * length
        for window, nxt in folds[1:]:
            out = [h + nxt[0] for h in his]
            h0 = his[0]
            for n in range(1, window + 1):
                if n < window and nxt[n + 1] == nxt[n] - 1:
                    # split n + 1 is no worse at every k > n
                    if h0 + nxt[n] < out[n]:
                        out[n] = h0 + nxt[n]
                else:
                    out[n:] = map(min, out[n:], map(add, his, repeat(nxt[n])))
            his = out
        cut = min(fall, length)
        top = his[0] + drop
        his = [top - k for k in range(cut)] + [h + drop - fall for h in his[: length - cut]]
        if g < inf:
            his[g:] = [0]
        return VSeq(_closed_lows(self._sum_lower_v0(e.parts), len(his)), tuple(his))

    def _sum_lower_v0(self, parts):
        """Best lower bound on V_0 of the sum from V_0(A # B) >= V_0(A) - V_0(B*).

        Over the two-block partitions (A, B) of the summands, the optimum is

            lo = max(0, max_i [lo0(p_i) - sum_{j != i} hi0(p_j*)]),

        where a term with an infinite hi0 is -inf and drops out.  The m
        copies of a summand p have one term, read once: it subtracts hi0(q*)
        for each copy of every other distinct summand q, and
        (m - 1) * hi0(p*) for the other copies of p, written as 0 when
        m = 1 so that no 0 * inf arises.  The sum over the other distinct
        summands is read from prefix and suffix sums, not as the total
        minus p's own, which would be inf - inf when hi0(p*) is infinite.

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
        groups = self._groups(parts)
        mirrors = [self._vseq_of(flip(p)).hi[0] for p, _ in groups]
        totals = [m * h for (_, m), h in zip(groups, mirrors)]
        before = list(accumulate(totals, initial=0))
        after = list(accumulate(reversed(totals), initial=0))[::-1]
        best = 0
        for i, (p, m) in enumerate(groups):
            rest = before[i] + after[i + 1]
            if m > 1:
                rest += (m - 1) * mirrors[i]
            best = max(best, self._vseq_of(p).lo[0] - rest)
        return best

    def _vseq_cable(self, e):
        """Wu's formula V_i(K_{p,q}) = V_i(T(p,q)) + max{V_a(K), V_b(K)},
        a = floor(phi/p), b = floor((p+q-1-phi)/p), phi = wu_phi(p, q, i).

        The companion's sequence is closed, so as VSeq.at reads it both
        bounds are nonincreasing in the index: the maximum is the read at
        min(a, b).  Past the prefix that read is the tail rule's, lo
        lowered by one for each step of distance and the last hi.
        """
        p, q = e.p, e.q
        comp = self._vseq_of(e.companion)
        last = len(comp) - 1
        los, his = [], []
        tor = lspace_torsion(torus_alexander(p, q))
        for i, t in enumerate((*tor, *repeat(0, p * q // 2 + 1 - len(tor)))):
            ph = wu_phi(p, q, i)
            k = min(ph // p, (p + q - 1 - ph) // p)
            j = min(k, last)
            los.append(t + max(0, comp.lo[j] - (k - j)))
            his.append(t + comp.hi[j])
        return _close(los, his, self._genus(e))

    def v_seq(self, e) -> VSeq:
        """Sound interval V-sequence of the expression."""
        return self._vseq_refined(normalize(e))

    @_memoized
    def _vseq_refined(self, e):
        """V(e) with V_0 read from red = nu_equiv_reduce(e), the Whitehead
        substitution, which is valid for V_0 and nu+ only.

        The substitution axiom transports V_0 exactly, and V_0(red) lies
        inside V_0(e), so red's V_0 replaces e's with no intersection.
        Proof: let e hold k summands Wh = Wh(T(2,3)) and the rest R; red
        has T(2,2k+1) in their place.

          * Upper bounds.  A registry record of Wh may only omit data, so
            Wh closes to hi = (1, 0) under genus 1, or to larger or
            unbounded bounds, and k copies fold to hi_j >= k - j, while
            T(2,2k+1) has hi_j = ceil((k - j)/2) and genus k <= k*g(Wh).
            The fold and the closure are monotone, so hi_j(red) <= hi_j(e)
            at every j.
          * Lower bound of V_0.  hi_0(Wh*) is 1 or inf (no v0_mirror, genus
            1 or none) and hi_0(T(2,2k+1)*) = k, from its genus.  In
            _sum_lower_v0, e's term for a copy of Wh is at most
            1 - sum_R hi_0(r*), and red's term for T(2,2k+1) is
            ceil(k/2) - sum_R hi_0(r*); e's term for r in R subtracts
            k*hi_0(Wh*) >= k where red's subtracts k.  So lo_0(red) >=
            lo_0(e); for e = k*Wh alone, lo_0(e) <= 1 <= lo_0(T(2,2k+1)).

        The lower bounds of a sum or a certificate atom are max(0, lo_0 - j),
        so e's first possible zero is lo_0(e), and red's is lo_0(red) or,
        for T(2,2k+1), k.  Both inclusions thus put red's nu+ window inside
        e's, and _nu_raw reads red alone.  With lo(e) <= lo(red) <= hi(red)
        <= hi(e), e's closure cannot fail where red's succeeds, so an input
        raises ContradictionError exactly where the intersection did.
        """
        base = self._vseq_of(e)
        red = nu_equiv_reduce(e)
        if red == e:
            return base
        rb = self._vseq_of(red)
        if (rb.lo[0], rb.hi[0]) == (base.lo[0], base.hi[0]):
            return base
        return _close((rb.lo[0], *base.lo[1:]), (rb.hi[0], *base.hi[1:]), self._genus(e))

    # -- nu+ and tau --------------------------------------------------

    @_memoized
    def _nu_raw(self, e):
        # nu+ bounds from the V-sequence alone (no tau refinement); the
        # Whitehead substitution's window lies inside e's (_vseq_refined).
        # A rule apart from _vseq_refined, which also folds e's own sum, so
        # a nu+ query folds only the substituted one: suite thm2 reads nu+
        # alone and folds 200 sums this way, 300 through one merged rule
        s = self._vseq_of(nu_equiv_reduce(e))
        return Interval(s.first_possible_zero(), s.first_certain_zero())

    def _tau_window(self, e):
        # fallback enclosure from tau <= nu+ and tau(K) = -tau(K*)
        hi = self._nu_raw(e).hi
        return Interval(-self._nu_raw(flip(e)).hi, hi)

    @_memoized
    def _tau(self, e):
        if isinstance(e, Atom):
            cert = self.db.get(e.name)
            if cert.tau is not None:
                return Interval.exact(cert.tau)
            return self._tau_window(e)
        if isinstance(e, Mirror):
            return -self._tau(e.child)
        if isinstance(e, Sum):
            # m copies of a summand add m times its interval
            lo = hi = 0
            for p, m in self._groups(e.parts):
                t = self._tau(p)
                lo += m * t.lo
                hi += m * t.hi
            acc = Interval(lo, hi)
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
                return Interval.exact(self._genus(e))
            return self._tau_window(e)
        raise TypeError(f"not a knot expression: {e!r}")

    def tau(self, e) -> Interval:
        """tau: exact where the homomorphism/cabling rules apply, else an enclosure."""
        return self._tau(normalize(e))

    def nu_plus(self, e) -> Interval:
        """nu+ = min{k >= 0 : V_k = 0}, enclosed from the V-sequence and tau."""
        e = normalize(e)
        raw = self._nu_raw(e)
        lo = max(raw.lo, self._tau(e).lo)
        if lo > raw.hi:
            raise ContradictionError(
                "certificate data inconsistent: tau lower bound exceeds the nu+ upper bound"
            )
        return Interval(lo, raw.hi)

    # -- classical invariants: the module functions, once per expression

    @_memoized
    def sigma(self, e) -> SigFn:
        """Levine-Tristram signature function, as signatures.sigma."""
        return sigma(e, self.db)

    @_memoized
    def alexander(self, e) -> LaurentPoly:
        """Alexander polynomial, as knotexpr.alexander."""
        return alexander(e, self.db)

    def d1(self, e) -> Interval:
        """d of +1-surgery: d1 = -2*V_0, always <= 0 and even where exact."""
        v0 = self.v_seq(e).at(0)
        return Interval(-2 * v0.hi, -2 * v0.lo)

    def surgery_d(self, e, p: int, q: int, i: int) -> Interval:
        """Correction term of p/q-surgery on the expression at Spin^c label i.

        d(S^3_{p/q}(K), i) = d(S^3_{p/q}(O), i)
                             - 2 max{V_{floor(i/q)}, V_{floor((p+q-1-i)/q)}}.
        """
        base = lens_d(p, q, i)  # validates p, q, i
        s = self.v_seq(e)
        mx = s.at(i // q).max_with(s.at((p + q - 1 - i) // q))
        return Interval(base - 2 * mx.hi, base - 2 * mx.lo)

