"""Independent oracles used only by the tests.

Signatures come from Seifert matrices via numeric eigenvalues; Alexander
polynomials come from sympy polynomial division.  Neither path shares code
with the package implementations they check.  The remaining oracles are
earlier package implementations kept as references for their rewrites:
PartitionEvaluator for the one-summand V_0 lower bound of connected sums,
AllSplitsEvaluator for the windowed sum fold (and CappedEvaluator for the
64-entry prefix that genus-less sums had), fold_every_split for the fold
that skips dominated splits, fold_skipping_dominated for the fold that
folds falling summands as one shift and reads repeated summands once,
WuCableEvaluator (with
torus_vseq) for the Wu cable step on bound tuples, FlagEvaluator for the
cable tau rule read from the data, IntersectingEvaluator for the
Whitehead substitution read in place of the expression's own V_0 and
nu+ bounds, close_iterated for the V-sequence
closure (close_intervals closes a list of intervals, the form the closure
once took), ZeroFromVSeq for the V-sequence tail read from the last
entry, vanishes_by_cyclotomic and vanishes_by_fold (the fold without
the degree test before it) for the root-of-unity test, mul_by_dict (with
alexander_by_dict_mul, which also multiplies a sum's summands one at a
time) for the Laurent product and its powers,
cable_sigma_by_midpoints for the cable signature, pieces_by_comparison
for SigFn.pieces, sigma_by_fold and
sigma_by_fraction_walk (with from_deltas and sigma_torus_by_fractions) for
the one-walk signature on integer numerators, combination_check_by_box
for the signature independence check, torsion_coefficient for the one-pass
torsion coefficients (torsion_coefficients adds the check that the
polynomial is an Alexander polynomial), torus_alexander_by_division (with
its long division div_exact) for the semigroup torus Alexander polynomials,
json_indent2 for the CLI's --json writer, NoneInterval for the intervals
with -inf/inf ends, obstruct_definite_by_verdicts for the closed form
of the one-sided combination rule, and c1_square_by_solve (a Gauss-Jordan
solve, solve_by_gauss_jordan), inertia_by_congruence and
diagonalize_by_fractions (the same congruence in fractions) for the one
integer reduction that gives both c1^2 and the inertia of a form, and
size_by_walk for the size count that reads each distinct summand once.  family_kn spells the suite thm1
expression K_n apart from the composite that the suite takes it from.
contains, monomial and all_certified are package API that only the tests
read, kept here as functions.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

import numpy as np
import sympy
from sympy import ZZ
from sympy.polys.densearith import dup_rem
from sympy.polys.rings import ring

from defslice.certificates import nu_equiv_reduce, resolve_db
from defslice.cli import _json_value
from defslice.hf_invariants import (
    ContradictionError,
    Evaluator,
    Interval,
    VSeq,
    _close,
    _lspace_vseq,
    _memoized,
    wu_phi,
)
from defslice.knotexpr import (
    MAX_GENUS,
    WHITEHEAD_TREFOIL,
    Atom,
    Cable,
    Mirror,
    SizeLimitError,
    Sum,
    mirror,
    normalize,
    torus_atom,
    torus_params,
)
from defslice.laurent import LaurentPoly, symmetric_normalized, torus_alexander
from defslice.obstructions import (
    RULE_A,
    RULE_B,
    RULE_C,
    RULE_COMBINED,
    _reason,
    _signature_evidence,
    _verdict,
    obstruct_negative_definite,
    obstruct_positive_definite,
)
from defslice.qform_verify import QMatrix, is_characteristic
from defslice.signatures import HALF, CombinationCheck, SigFn, SignatureUnavailable, sigma


def contains(iv, v):
    """v lies in the closed interval iv (formerly IntInterval.contains)."""
    return iv.lo <= v <= iv.hi


def monomial(e, a=1):
    """a * t^e (formerly LaurentPoly.monomial)."""
    return LaurentPoly({e: a})


def all_certified(report):
    """Every hypothesis of a CompositeReport is certified (formerly
    CompositeReport.all_certified)."""
    return all(h.certified for h in report.hypotheses)


def _upper_bidiagonal(n):
    m = np.eye(n, dtype=int)
    for i in range(n - 1):
        m[i][i + 1] = -1
    return m


def seifert_matrix_torus(p, q):
    """Seifert matrix of T(p,q) from the fiber-surface tensor construction.

    Anchored independently: its det-polynomial equals the Alexander
    polynomial and its omega = -1 signature matches the classical values
    (checked in the tests that use it).
    """
    return -np.kron(_upper_bidiagonal(p - 1), _upper_bidiagonal(q - 1))


def numeric_signature(V, x, tol=1e-9):
    """Signature of (1-w)V + (1-conj(w))V^T at w = e^(2*pi*i*x), numerically."""
    w = np.exp(2j * np.pi * float(x))
    M = (1 - w) * V + (1 - np.conj(w)) * V.T
    eig = np.linalg.eigvalsh(M)
    if min(abs(eig)) <= tol:
        raise ValueError(f"angle {x} too close to a jump (eigenvalue within {tol})")
    return int(np.sum(np.sign(eig)))


def alexander_from_seifert(V):
    """Symmetric-normalized Alexander polynomial det(V - t V^T), via sympy."""
    t = sympy.symbols("t")
    M = sympy.Matrix(V.tolist()) - t * sympy.Matrix(V.T.tolist())
    poly = sympy.Poly(sympy.expand(M.det()), t)
    coeffs = list(reversed(poly.all_coeffs()))
    return symmetric_normalized(LaurentPoly(enumerate(int(c) for c in coeffs)))


def alexander_torus_division(p, q):
    """(t^(pq)-1)(t-1)/((t^p-1)(t^q-1)) via sympy exact division in the
    sparse polynomial ring Z[t]."""
    _, t = ring("t", ZZ)
    num = (t ** (p * q) - 1) * (t - 1)
    den = (t**p - 1) * (t**q - 1)
    quo, rem = num.div(den)
    assert rem == 0
    return symmetric_normalized(LaurentPoly((exp, int(c)) for (exp,), c in quo.terms()))


def div_exact(num, den):
    """Exact Laurent long division; raises ValueError on any nonzero
    remainder.  Used by cyclotomic, and with torus_alexander_by_division
    the reference for laurent.torus_alexander."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    shift = num.min_exp - den.min_exp
    a = num.shift(-num.min_exp)
    b = den.shift(-den.min_exp)
    da, db = a.degree, b.degree
    if da < db:
        raise ValueError("not divisible: degree too small")
    ac = [a.coeff(i) for i in range(da + 1)]
    bc = [b.coeff(i) for i in range(db + 1)]
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        lead = ac[k + db]
        if lead % bc[db] != 0:
            raise ValueError("not divisible: leading coefficient")
        c = lead // bc[db]
        q[k] = c
        if c:
            for j in range(db + 1):
                ac[k + j] -= c * bc[j]
    if any(ac):
        raise ValueError("not divisible: nonzero remainder")
    return LaurentPoly({k + shift: c for k, c in enumerate(q)})


def mul_by_dict(self, other):
    """self * other, accumulated in a dict and built by the validating
    constructor: the reference for LaurentPoly.__mul__."""
    out = {}
    for e1, a1 in self._c.items():
        for e2, a2 in other._c.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + a1 * a2
    return LaurentPoly(out)


def alexander_by_dict_mul(e, db=None):
    """knotexpr.alexander with every product taken by mul_by_dict, and a
    sum's polynomial as the product of its summands' one at a time."""
    return _alex_by_dict_mul(normalize(e), resolve_db(db))


def _alex_by_dict_mul(e, db):
    if isinstance(e, Atom):
        return db.get(e.name).alexander
    if isinstance(e, Mirror):
        return _alex_by_dict_mul(e.child, db)
    if isinstance(e, Sum):
        out = LaurentPoly.one()
        for p in e.parts:
            out = mul_by_dict(out, _alex_by_dict_mul(p, db))
        return out
    return mul_by_dict(_alex_by_dict_mul(e.companion, db).subst_power(e.p), torus_alexander(e.p, e.q))


def torus_alexander_by_division(p, q):
    """(t^(pq)-1)(t-1)/((t^p-1)(t^q-1)) by div_exact, symmetric normalized."""
    t = monomial
    one = LaurentPoly.one()
    num = (t(p * q) - one) * (t(1) - one)
    den = (t(p) - one) * (t(q) - one)
    return symmetric_normalized(div_exact(num, den))


def pieces_by_comparison(fn):
    """SigFn.pieces as it was, comparing each jump with the one before it,
    though SigFn's constructor already keeps the jumps strictly
    increasing."""
    out = []
    acc = 0
    prev = Fraction(0)
    for x, delta in fn.jumps:
        if x > prev:
            out.append((prev, x, acc))
        acc += delta
        prev = x
    if prev < HALF:
        out.append((prev, HALF, acc))
    return out


def random_regular_angle(rng, fn, max_den=997):
    """Random rational in (0, 1/2) that is not a jump point of fn."""
    jump_xs = {x for x, _ in fn.jumps}
    while True:
        den = rng.randrange(5, max_den)
        num = rng.randrange(1, den // 2)
        x = Fraction(num, den)
        if 0 < x < Fraction(1, 2) and x not in jump_xs:
            return x


class PartitionEvaluator(Evaluator):
    """Evaluator whose V_0 lower bound tries every two-block partition.

    V_0(A # B) >= V_0(A) - V_0(B*) over every split of the summands into
    nonempty A and B, with V_0(A) bounded below by the same search: 3^r work
    over r summands.  Evaluator._sum_lower_v0 proves that a single summand
    in A attains this optimum; this search is the reference it is checked
    against.
    """

    def _sum_lower_v0(self, parts):
        r = len(parts)
        best = 0
        for mask in range(1, (1 << r) - 1):
            a = tuple(p for i, p in enumerate(parts) if mask >> i & 1)
            b = tuple(mirror(p) for i, p in enumerate(parts) if not mask >> i & 1)
            lo_a = self._vseq_of(a[0] if len(a) == 1 else Sum(a)).at(0).lo
            hi_b = self._vseq_of(b[0] if len(b) == 1 else Sum(b)).at(0).hi
            best = max(best, lo_a - hi_b)
        return best


class AllSplitsEvaluator(Evaluator):
    """Evaluator whose sum fold tries every split m + n = k of every k.

    Each added summand is folded over all L^2 splits of the length-L
    prefix, reading every value through VSeq.at.  Evaluator._vseq_sum
    proves that a summand whose upper bounds are constant from its settle
    index w only needs the splits n <= w; this fold is the reference it is
    checked against.  Without a genus bound L is the summands' prefix
    lengths added up, at most max_length.
    """

    max_length = inf

    def _vseq_sum(self, e):
        parts = e.parts
        seqs = [self._vseq_of(p) for p in parts]
        genus = self._genus(e)
        if genus < inf:
            length = max(genus, 1)
        else:
            length = max(2, min(self.max_length, sum(map(len, seqs))))
        his = [seqs[0].at(k).hi for k in range(length)]
        for s in seqs[1:]:
            nxt = [s.at(k).hi for k in range(length)]
            out = []
            for k in range(length):
                best = inf
                for m in range(k + 1):
                    best = min(best, his[m] + nxt[k - m])
                out.append(best)
            his = out
        lo0 = self._sum_lower_v0(parts)
        entries = [Interval(lo0 if k == 0 else 0, his[k]) for k in range(length)]
        return close_intervals(entries, genus)


def fold_every_split(ev, e):
    """V-sequence of the sum e as Evaluator._vseq_sum folded it before it
    skipped dominated splits: each added summand tries every split n up to
    its settle window, with a slice update for each.  Reads the rest of
    the session's rules through ev."""
    parts = e.parts
    uppers = [ev._vseq_of(p).hi for p in parts]
    g = ev._genus(e)
    length = max(g, 1) if g < inf else max(2, sum(map(len, uppers)))
    folds = sorted(
        ((min(hi.index(hi[-1]), length - 1), hi) for hi in uppers),
        key=lambda t: t[0],
        reverse=True,
    )
    first = folds[0][1]
    his = [*first[:length], *itertools.repeat(first[-1], length - len(first))]
    for window, nxt in folds[1:]:
        out = [h + nxt[0] for h in his]
        for n in range(1, window + 1):
            out[n:] = map(min, out[n:], [h + nxt[n] for h in his])
        his = out
    los = [0] * length
    los[0] = ev._sum_lower_v0(parts)
    return _close(los, his, g)


def fold_skipping_dominated(ev, e):
    """V-sequence of the sum e as Evaluator._vseq_sum folded it before
    falling summands became one shift: every copy of every summand takes
    the windowed fold that skips dominated splits, from the widest window.
    Reads the rest of the session's rules through ev."""
    parts = e.parts
    uppers = [ev._vseq_of(p).hi for p in parts]
    g = ev._genus(e)
    length = max(g, 1) if g < inf else max(2, sum(map(len, uppers)))
    folds = sorted(
        ((min(hi.index(hi[-1]), length - 1), hi) for hi in uppers),
        key=lambda t: t[0],
        reverse=True,
    )
    first = folds[0][1]
    his = [*first[:length], *itertools.repeat(first[-1], length - len(first))]
    for window, nxt in folds[1:]:
        out = [h + nxt[0] for h in his]
        h0 = his[0]
        for n in range(1, window + 1):
            if n < window and nxt[n + 1] == nxt[n] - 1:
                if h0 + nxt[n] < out[n]:
                    out[n] = h0 + nxt[n]
            else:
                out[n:] = map(min, out[n:], [h + nxt[n] for h in his])
        his = out
    los = [0] * length
    los[0] = ev._sum_lower_v0(parts)
    return _close(los, his, g)


class CappedEvaluator(AllSplitsEvaluator):
    """The sum fold as it was for sums without a genus bound: the prefix
    stops at 64 entries, and past it the tail rule repeats its last upper
    bound.  Every interval of Evaluator lies inside this one's, and the
    two agree when the summands' prefixes add up to at most 64 entries."""

    max_length = 64


class FlagEvaluator(Evaluator):
    """Evaluator whose cable tau rule reads a declared tau = genus flag.

    An atom carries the flag when it is an L-space atom or the Whitehead
    double, whose built-in certificate declared it; the flag passes to a
    mirror of a genus-0 child, to a sum whose parts all carry it and to a
    cable of a companion that carries it.  Evaluator._tau fires the cable
    rule when the companion's tau is exact and equals its genus bound,
    which every flagged expression satisfies; this is the reference it is
    checked against.
    """

    @_memoized
    def _flag(self, e):
        if isinstance(e, Atom):
            return self.db.get(e.name).lspace or e.name == WHITEHEAD_TREFOIL
        if isinstance(e, Mirror):
            return self._flag(e.child) and self._genus(e.child) == 0
        if isinstance(e, Sum):
            return all(self._flag(p) for p in e.parts)
        return self._flag(e.companion)

    @_memoized
    def _tau(self, e):
        if isinstance(e, Cable):
            if self._flag(e.companion):
                base = self._tau(e.companion).value
                return Interval.exact(e.p * base + (e.p - 1) * (e.q - 1) // 2)
            return self._tau_window(e)
        return Evaluator._tau.__wrapped__(self, e)


class IntersectingEvaluator(Evaluator):
    """Evaluator that meets the Whitehead substitution with the expression's
    own bounds: V_0 is the intersection of the two V_0 intervals, and the
    nu+ window the larger first possible zero and the smaller first certain
    zero of the two V-sequences.  Evaluator._vseq_refined proves that the
    substituted bounds lie inside the expression's own, so it reads them
    alone; this is the reference it is checked against.
    """

    @_memoized
    def _vseq_refined(self, e):
        base = self._vseq_of(e)
        red = nu_equiv_reduce(e)
        if red != e:
            e0 = base.at(0).intersect(self._vseq_of(red).at(0))
            if e0 != base.at(0):
                base = _close((e0.lo, *base.lo[1:]), (e0.hi, *base.hi[1:]), self._genus(e))
        return base

    @_memoized
    def _nu_raw(self, e):
        seqs = [self._vseq_of(e)]
        red = nu_equiv_reduce(e)
        if red != e:
            seqs.append(self._vseq_of(red))
        lo = max(s.first_possible_zero() for s in seqs)
        hi = min(s.first_certain_zero() for s in seqs)
        return Interval(lo, hi)


def close_intervals(entries, genus):
    """_close of a list of Intervals, the form that V-sequence bounds
    took before they were two tuples."""
    return _close([iv.lo for iv in entries], [iv.hi for iv in entries], genus)


@lru_cache(maxsize=None)
def torus_vseq(p, q):
    """Exact V-sequence of the positive torus knot T(p,q), q >= 1, closed
    from its torsion coefficients (formerly hf_invariants._torus_vseq)."""
    return _lspace_vseq(torus_alexander(p, q))


class WuCableEvaluator(Evaluator):
    """Evaluator whose Wu cable step reads both companion indices through
    VSeq.at and takes their maximum with max_with, adding V_i of the torus
    knot read from its closed V-sequence torus_vseq; the reference for
    Evaluator._vseq_cable, which reads one index of the closed bound
    tuples.  tail_reads counts the companion reads past its prefix.
    """

    def __init__(self, db=None):
        super().__init__(db)
        self.tail_reads = 0

    def _vseq_cable(self, e):
        cseq = self._vseq_of(e.companion)
        tor = torus_vseq(e.p, e.q)
        entries = []
        for i in range(e.p * e.q // 2 + 1):
            ph = wu_phi(e.p, e.q, i)
            a, b = ph // e.p, (e.p + e.q - 1 - ph) // e.p
            self.tail_reads += (a >= len(cseq)) + (b >= len(cseq))
            mx = cseq.at(a).max_with(cseq.at(b))
            t = tor.at(i).value
            entries.append(Interval(t + mx.lo, t + mx.hi))
        return close_intervals(entries, self._genus(e))


def close_iterated(los, his, genus):
    """V-sequence closure that repeats forward and backward sweeps until
    nothing changes, with V_k = 0 for k >= genus (inf when unknown); the
    reference for hf_invariants._close."""
    n = len(los)
    length = max(n, 1, genus + 1 if genus < inf else 0)
    out_lo, out_hi = [], []
    for k in range(length):
        if k < n:
            lo = max(los[k], 0)
            hi = his[k]
        else:
            lo, hi = 0, inf
        if k >= genus:
            if lo > 0 or hi < 0:
                raise ContradictionError(
                    f"V_{k} constrained to {Interval(los[k], his[k])} but the tail is zero"
                )
            lo, hi = 0, 0
        out_lo.append(lo)
        out_hi.append(hi)
    los, his = out_lo, out_hi
    changed = True
    while changed:
        changed = False
        for k in range(1, length):
            if his[k] > his[k - 1]:
                his[k] = his[k - 1]
                changed = True
            if los[k] < los[k - 1] - 1:
                los[k] = los[k - 1] - 1
                changed = True
        for k in range(length - 2, -1, -1):
            if his[k] > his[k + 1] + 1:
                his[k] = his[k + 1] + 1
                changed = True
            if los[k] < los[k + 1]:
                los[k] = los[k + 1]
                changed = True
    for lo, hi in zip(los, his):
        if lo > hi:
            raise ContradictionError("V-sequence bounds are inconsistent")
    return VSeq(tuple(los), tuple(his))


@dataclass(frozen=True)
class ZeroFromVSeq:
    """A V-sequence as its entries and zero_from, the genus bound from
    which V_k = 0 exactly (None when unknown), with the tail reads it had
    in that form; the reference for VSeq, which reads its tail from its
    last entry alone."""

    entries: tuple
    zero_from: int | None

    def at(self, k):
        if k < len(self.entries):
            return self.entries[k]
        if self.zero_from is not None:
            return Interval.exact(0)
        last = self.entries[-1]
        d = k - (len(self.entries) - 1)
        return Interval(max(0, last.lo - d), last.hi)

    def first_possible_zero(self):
        for k, iv in enumerate(self.entries):
            if iv.lo == 0:
                return k
        if self.zero_from is not None:
            return len(self.entries)
        return len(self.entries) - 1 + self.entries[-1].lo

    def first_certain_zero(self):
        for k, iv in enumerate(self.entries):
            if iv.hi == 0:
                return k
        return inf if self.zero_from is None else len(self.entries)


@lru_cache(maxsize=None)
def cyclotomic(n):
    """n-th cyclotomic polynomial, by dividing t^n - 1 by every Phi_d, d | n."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    poly = monomial(n) - LaurentPoly.one()
    for d in range(1, n):
        if n % d == 0:
            poly = div_exact(poly, cyclotomic(d))
    return poly


def vanishes_by_cyclotomic(poly, x):
    """poly(e^(2*pi*i*x)) == 0 iff Phi_n divides poly, n the denominator of x;
    the reference for laurent.vanishes_at_unit_root."""
    if poly.is_zero():
        return True
    x = Fraction(x)
    n = x.denominator
    base = poly.shift(-poly.min_exp)
    if n == 1:
        return base.eval_at_one() == 0
    phi = cyclotomic(n)
    dp = phi.degree
    r = [base.coeff(i) for i in range(base.degree + 1)]
    pc = [phi.coeff(i) for i in range(dp + 1)]
    # phi is monic, so the remainder stays integral
    for k in range(len(r) - 1, dp - 1, -1):
        c = r[k]
        if c:
            for j in range(dp + 1):
                r[k - dp + j] -= c * pc[j]
    return not any(r)


def vanishes_by_fold(poly: LaurentPoly, x) -> bool:
    """Exact test of poly(e^(2*pi*i*x)) == 0 for rational x.

    With n the reduced denominator of x, fold poly modulo t^n - 1 into g,
    which agrees with poly at every n-th root of unity w.  For each prime
    p | n and s = n/p, the step g -> p*g - h, where h[i] sums g over the
    coset i + sZ/nZ, multiplies g(w) by p - sum_{k<p} w^(ks): by 0 when the
    order of w divides n/p, by p otherwise.  Every proper divisor of n
    divides some n/p, so in the end g(w) = 0 at the roots of order below n
    and g(w) = (prod p) * poly(w) at the primitive ones.  The Fourier
    transform on Z/n is invertible, so g == 0 iff poly vanishes at every
    primitive n-th root, that is (poly is rational, and Galois conjugation
    permutes those roots transitively) iff it vanishes at e^(2*pi*i*x).
    """
    n = Fraction(x).denominator
    g = [0] * n
    for e, a in poly._c.items():
        g[e % n] += a
    m, p = n, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            while m % p == 0:
                m //= p
            s = n // p
            h = [sum(g[r::s]) for r in range(s)] * p
            g = [p * a - b for a, b in zip(g, h)]
        p += 1
    return not any(g)


@lru_cache(maxsize=None)
def _sympy_cyclotomic(n):
    phi = sympy.cyclotomic_poly(n, sympy.symbols("t"), polys=True)
    return [sympy.ZZ(int(c)) for c in phi.all_coeffs()]


def vanishes_by_sympy(poly, x):
    """Root-of-unity test through sympy: the remainder of t^(-min_exp) * poly
    on division by sympy's n-th cyclotomic polynomial, n the denominator of x."""
    if poly.is_zero():
        return True
    coeffs = [sympy.ZZ(poly.coeff(e)) for e in range(poly.degree, poly.min_exp - 1, -1)]
    return not dup_rem(coeffs, _sympy_cyclotomic(Fraction(x).denominator), sympy.ZZ)


def cable_sigma_by_midpoints(base, p, q):
    """sigma_K(omega^p) + sigma_{T(p,q)}(omega), evaluated at the midpoint of
    every piece between candidate jump points and differenced; the reference
    for signatures._cable_sigma.  Litherland's formula holds for q of
    either sign, with T(p,q) = T(p,|q|)* and so sigma_{T(p,|q|)} negated
    for q < 0, so this reference does not go through normalize."""
    tor = sigma(torus_atom(p, abs(q)))
    if q < 0:
        tor = SigFn(tuple((x, -d) for x, d in tor.jumps))
    if base.is_zero:
        return tor
    cuts = {x for x, _ in tor.jumps}
    for u, _ in base.jumps:
        for m in range(p):
            for cand in (Fraction(m + u, p), Fraction(m + 1 - u, p)):
                if 0 < cand <= HALF:
                    cuts.add(cand)
    for m in range(1, p + 1):
        cand = Fraction(m, 2 * p)  # folding points of x -> p*x mod 1
        if cand <= HALF:
            cuts.add(cand)
    cuts = sorted(cuts)
    bounds = [Fraction(0)] + cuts
    if not cuts or cuts[-1] < HALF:
        bounds.append(HALF)

    def composite(x):
        y = (p * x) % 1
        yh = y if y <= HALF else 1 - y
        bv = 0 if yh == 0 else base.value(yh)
        return bv + (0 if tor.is_zero else tor.value(x))

    values = [composite((a + b) / 2) for a, b in zip(bounds, bounds[1:])]
    if values[0] != 0:
        raise AssertionError("cable signature must vanish near x = 0")
    jumps = []
    for idx in range(1, len(values)):
        delta = values[idx] - values[idx - 1]
        if delta:
            jumps.append((bounds[idx], delta))
    return SigFn(tuple(jumps))


def combination_check_by_box(knots, bound, db=None):
    """Sum the scaled signature jumps of every coefficient vector with
    |m_i| <= bound; the reference for signatures.signature_combination_check."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    sigs = [sigma(k, db) for k in knots]
    dependent = []
    count = 0
    for vec in itertools.product(range(-bound, bound + 1), repeat=len(sigs)):
        if not any(vec):
            continue
        count += 1
        total = {}
        for m, s in zip(vec, sigs):
            for x, d in s.jumps:
                total[x] = total.get(x, 0) + m * d
        if not any(total.values()):
            dependent.append(vec)
    return CombinationCheck(bound=bound, count=count, dependent=tuple(dependent))


def _cable_by_fold(base, p, q):
    """The cable rule on a merged SigFn: the torus jumps plus the base jumps
    moved up to (m + u)/p and down to (m + 1 - u)/p, merged."""
    moved = (
        (x, delta)
        for u, d in base.jumps
        for m in range(p)
        for x, delta in (((m + u) / p, d), ((m + 1 - u) / p, -d))
        if x <= HALF
    )
    return from_deltas(itertools.chain(sigma(torus_atom(p, q)).jumps, moved))


def from_deltas(deltas):
    """The SigFn whose jump at x is the sum of the deltas that the (x, delta)
    pairs give at x; sums that cancel drop out.  The Fraction merge of the
    signature oracles (formerly SigFn.from_deltas)."""
    acc = {}
    for x, d in deltas:
        acc[x] = acc.get(x, 0) + d
    return SigFn(tuple(sorted((x, d) for x, d in acc.items() if d)))


def sigma_torus_by_fractions(p, q):
    """The counting form of T(p,q) in Fraction arithmetic; the reference
    for the torus atoms of signatures.sigma, which counts integer numerators
    over p*q."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError(f"need coprime p,q >= 1, got ({p},{q})")
    sums = (Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q))
    jumps = ((s, 2) if s < 1 else (s - 1, -2) for s in sums)
    return from_deltas((x, d) for x, d in jumps if x <= HALF)


def sigma_by_fraction_walk(e, db=None):
    """One walk collecting Fraction (x, delta) jump pairs unmerged, merged
    once at the top; the reference for signatures.sigma, which walks
    integer numerators over one denominator."""
    return from_deltas(_fraction_deltas(normalize(e), resolve_db(db)))


def _fraction_deltas(e, db):
    # jump pairs of a normal expression; raises at the first atom without
    # a signature rule in walk order
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return sigma_torus_by_fractions(*tq).jumps
        cert = db.get(e.name)
        if cert.alexander == LaurentPoly.one():
            # no roots on the unit circle, so the signature vanishes
            return ()
        raise SignatureUnavailable(f"atom {e.name!r} has no signature rule")
    if isinstance(e, Mirror):
        return [(x, -d) for x, d in _fraction_deltas(e.child, db)]
    if isinstance(e, Sum):
        return [pair for p in e.parts for pair in _fraction_deltas(p, db)]
    if isinstance(e, Cable):
        return _cable_sigma_by_fractions(_fraction_deltas(e.companion, db), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


def _cable_sigma_by_fractions(base, p, q):
    """The cable rule on Fraction (x, delta) pairs: the torus jumps plus
    each base pair (u, d) moved to ((m + u)/p, d) and ((m + 1 - u)/p, -d)
    for x <= 1/2, unmerged."""
    moved = [
        (x, delta)
        for u, d in base
        for m in range(p)
        for x, delta in (((m + u) / p, d), ((m + 1 - u) / p, -d))
        if x <= HALF
    ]
    return [*sigma_torus_by_fractions(p, q).jumps, *moved]


def sigma_by_fold(e, db=None):
    """Signature function built as a merged SigFn at every node of the
    normal expression, summands added pairwise; the reference for
    signatures.sigma, which merges the jump pairs of the whole expression
    once."""
    return _fold(normalize(e), resolve_db(db))


def _fold(e, db):
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return sigma(torus_atom(*tq))
        if db.get(e.name).alexander == LaurentPoly.one():
            return SigFn()
        raise SignatureUnavailable(f"atom {e.name!r} has no signature rule")
    if isinstance(e, Mirror):
        return SigFn(tuple((x, -d) for x, d in _fold(e.child, db).jumps))
    if isinstance(e, Sum):
        out = SigFn()
        for p in e.parts:
            out = from_deltas(out.jumps + _fold(p, db).jumps)
        return out
    if isinstance(e, Cable):
        return _cable_by_fold(_fold(e.companion, db), e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


def family_kn(n):
    """(#^3 Wh(T(2,3))) # ((Wh(T(2,3)))_{n+3,1})*, built directly; the
    reference for the expression of a suite thm1 row, which is the
    composite of obstructions.composite_cable_obstruction."""
    wh = Atom(WHITEHEAD_TREFOIL)
    return normalize(Sum((wh, wh, wh, Mirror(Cable(n + 3, 1, wh)))))


def torsion_coefficient(poly, j):
    """j-th torsion coefficient sum_{i>=1} i*a_{j+i}, by its defining sum;
    the reference for laurent.lspace_torsion."""
    if j < 0:
        raise ValueError("torsion index must be >= 0")
    d = poly.degree
    if d is None or d <= j:
        return 0
    return sum(i * poly.coeff(j + i) for i in range(1, d - j + 1))


def torsion_coefficients(poly, j):
    """t_j of a symmetric polynomial with value 1 at t=1, by the defining
    sum; the torsion side of the tests that cross-check Wu's formula."""
    if not poly.is_symmetric() or poly.eval_at_one() != 1:
        raise ValueError("torsion coefficients need a symmetric polynomial with value 1 at t=1")
    return torsion_coefficient(poly, j)


def json_indent2(data):
    """--json text without its final newline, from CPython's pure-Python
    indent encoder; the reference for cli._print_json.  A LaurentPoly is
    written as the list of its [exp, coeff] pairs in increasing exponent, a
    SigFn as the list of its pieces {from, to, value}, any other value as
    _json_value gives it."""
    return json.dumps(data, indent=2, default=_json_form)


def _json_form(x):
    if type(x) is LaurentPoly:
        return [[e, c] for e, c in x.items()]
    if type(x) is SigFn:
        return [{"from": lo, "to": hi, "value": v} for lo, hi, v in x.pieces()]
    return _json_value(x)


@dataclass(frozen=True)
class NoneInterval:
    """Closed integer interval with None for an unbounded end, and the
    operations it had in that spelling; the reference for Interval,
    whose unbounded ends are -inf and inf.  Its JSON form is its fields."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ContradictionError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_exact(self):
        return self.lo is not None and self.lo == self.hi

    def __str__(self):
        if self.is_exact:
            return str(self.lo)
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    def __add__(self, other):
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return NoneInterval(lo, hi)

    def __neg__(self):
        return NoneInterval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def intersect(self, other):
        lo = other.lo if self.lo is None else self.lo if other.lo is None else max(self.lo, other.lo)
        hi = other.hi if self.hi is None else self.hi if other.hi is None else min(self.hi, other.hi)
        return NoneInterval(lo, hi)

    def max_with(self, other):
        lo = other.lo if self.lo is None else self.lo if other.lo is None else max(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return NoneInterval(lo, hi)

    def contains(self, v):
        return (self.lo is None or self.lo <= v) and (self.hi is None or v <= self.hi)

    def as_inf(self):
        """The same interval with -inf and inf ends."""
        return Interval(-inf if self.lo is None else self.lo, inf if self.hi is None else self.hi)


def obstruct_definite_by_verdicts(e, ev):
    """obstruct_definite with its last rule decided by running both
    one-sided verdicts in the session ev; the reference for the closed
    form d1 < 0 and d1 of the mirror < 0."""
    e = normalize(e)
    reasons = []
    d = ev.d1(e)
    t = ev.tau(e)
    if d.hi < 0 and t.hi <= -1:
        reasons.append(_reason(RULE_A, d1=d, tau=t))
    dm = ev.d1(mirror(e))
    if dm.hi < 0 and t.lo >= 1:
        reasons.append(_reason(RULE_B, d1_mirror=dm, tau=t))
    sig_ev = _signature_evidence(e, ev)
    if sig_ev is not None:
        reasons.append(_reason(RULE_C, **sig_ev))
    if not reasons:
        neg = obstruct_negative_definite(e, ev)
        pos = obstruct_positive_definite(e, ev)
        if neg.obstructed and pos.obstructed:
            reasons.append(
                _reason(
                    RULE_COMBINED,
                    negative_rules=[r.rule for r in neg.reasons],
                    positive_rules=[r.rule for r in pos.reasons],
                )
            )
    return _verdict("any_definite", reasons)


def solve_by_gauss_jordan(Q: QMatrix, rhs):
    """Solve Q x = rhs over the rationals; raises ValueError when singular."""
    n = Q.n
    a = [[Fraction(Q.rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def c1_square_by_solve(Q: QMatrix, v) -> Fraction:
    """v^T Q^{-1} v for a characteristic v given in the cocore basis."""
    if not is_characteristic(Q, v):
        raise ValueError(f"{v} is not characteristic for the form")
    x = solve_by_gauss_jordan(Q, v)
    return sum((Fraction(c) * xi for c, xi in zip(v, x)), Fraction(0))


def inertia_by_congruence(Q: QMatrix):
    """Exact inertia (n_plus, n_minus, n_zero) by symmetric congruence."""
    n = Q.n
    a = [[Fraction(Q.rows[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is not None:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
            else:
                k = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if k is None:
                    zero += 1
                    continue
                # a_ii = a_kk = 0, a_ik != 0: make the diagonal nonzero
                for j in range(n):
                    a[i][j] += a[k][j]
                for j in range(n):
                    a[j][i] += a[j][k]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / d
                for k2 in range(n):
                    a[j][k2] -= f * a[i][k2]
                for k2 in range(n):
                    a[k2][j] -= f * a[k2][i]
    return (pos, neg, zero)


def diagonalize_by_fractions(Q: QMatrix, v=None):
    """(d, u): a congruence P^T Q P = diag(d) over the rationals, and
    u = P^T v, with v = 0 when it is not given.

    Each step is a row operation E^T a followed by the matching column
    operation a E on the working matrix a, so a stays symmetric and equal to
    P^T Q P for the product P of the E so far; u = P^T v takes each step as
    u <- E^T u, the row operation alone:
      - swap i and k: swap u_i and u_k;
      - pairing (row i += row k, column i += column k, used when
        a_ii = a_kk = 0 and a_ik != 0, making a_ii = 2 a_ik): u_i += u_k;
      - elimination (row j -= f row i, column j -= f column i, with
        f = a_ji / a_ii): u_j -= f u_i.
    A pivot whose remaining row is zero is skipped with d_i = 0.

    P is invertible, so diag(d) has the inertia of Q (Sylvester's law of
    inertia), and Q is singular exactly when some d_i is 0.  Otherwise
    Q^{-1} = P diag(d)^{-1} P^T, so v^T Q^{-1} v = sum u_i^2 / d_i.
    """
    n = Q.n
    a = [[Fraction(x) for x in row] for row in Q.rows]
    u = [Fraction(c) for c in (v if v is not None else [0] * n)]
    d = []
    for i in range(n):
        if a[i][i] == 0:
            k = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if k is not None:
                a[i], a[k] = a[k], a[i]
                for row in a:
                    row[i], row[k] = row[k], row[i]
                u[i], u[k] = u[k], u[i]
            else:
                k = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if k is None:
                    d.append(a[i][i])
                    continue
                for j in range(n):
                    a[i][j] += a[k][j]
                for j in range(n):
                    a[j][i] += a[j][k]
                u[i] += u[k]
        d.append(a[i][i])
        for j in range(i + 1, n):
            if a[j][i] != 0:
                f = a[j][i] / a[i][i]
                for k2 in range(n):
                    a[j][k2] -= f * a[i][k2]
                for k2 in range(n):
                    a[k2][j] -= f * a[k2][i]
                u[j] -= f * u[i]
    return d, u


def size_by_walk(e, db):
    """(atoms, genus bound) as knotexpr._size counts them, walking every
    part of a sum, each copy of a repeated summand anew."""
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return 1, (tq[0] - 1) * (tq[1] - 1) // 2
        c = db.get(e.name)
        deg = 0 if c.alexander is None else c.alexander.degree
        return 1, max(c.genus or 0, abs(c.tau or 0), c.v0 or 0, c.v0_mirror or 0, deg)
    if isinstance(e, Mirror):
        return size_by_walk(e.child, db)
    if isinstance(e, Sum):
        sizes = [size_by_walk(p, db) for p in e.parts]
        return sum(a for a, _ in sizes), sum(g for _, g in sizes)
    if e.p > MAX_GENUS:
        raise SizeLimitError(f"expression has a cable with p={e.p}, above the limit {MAX_GENUS}")
    atoms, g = size_by_walk(e.companion, db)
    return atoms, e.p * g + (e.p - 1) * (abs(e.q) - 1) // 2
