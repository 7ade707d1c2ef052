"""Independent oracles used only by the tests.

Signatures come from Seifert matrices via numeric eigenvalues; Alexander
polynomials come from sympy polynomial division.  Neither path shares code
with the package implementations they check.  The remaining oracles are
earlier package implementations kept as references for their rewrites:
PartitionEvaluator for the one-summand V_0 lower bound of connected sums,
AllSplitsEvaluator for the windowed sum fold (and CappedEvaluator for the
64-entry prefix that genus-less sums had), FlagEvaluator for the cable
tau rule read from the data, close_iterated for the
V-sequence closure, ZeroFromVSeq for the V-sequence tail read from the
last entry, vanishes_by_cyclotomic for the root-of-unity test,
cable_sigma_by_midpoints for the cable signature, sigma_by_fold for the
one-walk signature, combination_check_by_box for the signature
independence check, torsion_coefficient for the one-pass
torsion coefficients (torsion_coefficients adds the check that the
polynomial is an Alexander polynomial), torus_alexander_by_division (with
its long division div_exact) for the semigroup torus Alexander polynomials,
json_indent2 for the CLI's --json writer, NoneInterval for the intervals
with -inf/inf ends and obstruct_definite_by_verdicts for the closed form
of the one-sided combination rule.  family_kn spells the suite thm1
expression K_n apart from the composite that the suite takes it from.
"""

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf

import numpy as np
import sympy
from sympy import ZZ
from sympy.polys.densearith import dup_rem
from sympy.polys.rings import ring

from defslice.certificates import resolve_db
from defslice.cli import _json_value
from defslice.hf_invariants import (
    ContradictionError,
    Evaluator,
    IntInterval,
    VSeq,
    _as_evaluator,
    _close,
    _memoized,
)
from defslice.knotexpr import (
    WHITEHEAD_TREFOIL,
    Atom,
    Cable,
    CableSignError,
    Mirror,
    Sum,
    mirror,
    normalize,
    torus_params,
)
from defslice.laurent import LaurentPoly, symmetric_normalized
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
from defslice.signatures import HALF, CombinationCheck, SigFn, SignatureUnavailable, sigma, sigma_torus


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


def torus_alexander_by_division(p, q):
    """(t^(pq)-1)(t-1)/((t^p-1)(t^q-1)) by div_exact, symmetric normalized."""
    t = LaurentPoly.monomial
    one = LaurentPoly.one()
    num = (t(p * q) - one) * (t(1) - one)
    den = (t(p) - one) * (t(q) - one)
    return symmetric_normalized(div_exact(num, den))


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
            length = max(2, min(self.max_length, sum(len(s.entries) for s in seqs)))
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
        entries = [IntInterval(lo0 if k == 0 else 0, his[k]) for k in range(length)]
        return _close(entries, genus)


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
                return IntInterval.exact(e.p * base + (e.p - 1) * (e.q - 1) // 2)
            return self._tau_window(e)
        return Evaluator._tau.__wrapped__(self, e)


def close_iterated(entries, genus):
    """V-sequence closure that repeats forward and backward sweeps until
    nothing changes, with V_k = 0 for k >= genus (inf when unknown); the
    reference for hf_invariants._close."""
    n = len(entries)
    length = max(n, 1, genus + 1 if genus < inf else 0)
    los, his = [], []
    for k in range(length):
        if k < n:
            lo = max(entries[k].lo, 0)
            hi = entries[k].hi
        else:
            lo, hi = 0, inf
        if k >= genus:
            if lo > 0 or hi < 0:
                raise ContradictionError(
                    f"V_{k} constrained to {entries[k]} but the tail is zero"
                )
            lo, hi = 0, 0
        los.append(lo)
        his.append(hi)
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
    out = []
    for lo, hi in zip(los, his):
        if lo > hi:
            raise ContradictionError("V-sequence bounds are inconsistent")
        out.append(IntInterval(lo, hi))
    return VSeq(tuple(out))


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
            return IntInterval.exact(0)
        last = self.entries[-1]
        d = k - (len(self.entries) - 1)
        return IntInterval(max(0, last.lo - d), last.hi)

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
    poly = LaurentPoly.monomial(n) - LaurentPoly.one()
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
    for signatures._cable_sigma."""
    tor = sigma_torus(p, q)
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
    return SigFn.from_deltas(itertools.chain(sigma_torus(p, q).jumps, moved))


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
            return sigma_torus(*tq)
        if db.get(e.name).alexander == LaurentPoly.one():
            return SigFn()
        raise SignatureUnavailable(f"atom {e.name!r} has no signature rule")
    if isinstance(e, Mirror):
        return SigFn(tuple((x, -d) for x, d in _fold(e.child, db).jumps))
    if isinstance(e, Sum):
        out = SigFn()
        for p in e.parts:
            out = SigFn.from_deltas(out.jumps + _fold(p, db).jumps)
        return out
    if isinstance(e, Cable):
        if e.q <= 0:
            raise CableSignError(f"cable with q={e.q} <= 0 has no signature rule")
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
    the reference for laurent.torsion_prefix."""
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
    indent encoder; the reference for cli._print_json."""
    return json.dumps(data, indent=2, default=_json_value)


@dataclass(frozen=True)
class NoneInterval:
    """Closed integer interval with None for an unbounded end, and the
    operations it had in that spelling; the reference for IntInterval,
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
        return IntInterval(-inf if self.lo is None else self.lo, inf if self.hi is None else self.hi)


def obstruct_definite_by_verdicts(e, db=None):
    """obstruct_definite with its last rule decided by running both
    one-sided verdicts; the reference for the closed form d1 < 0 and d1
    of the mirror < 0."""
    ev = _as_evaluator(db)
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
