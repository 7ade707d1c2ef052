"""Obstructions to smooth sliceness in definite 4-manifolds, plus kinkiness.

Every verdict is conservative: a rule fires only on a certified interval
separation, never on a point estimate of an uncertain value, and
"inconclusive" never asserts sliceness.  Reason chains record which rule
fired with its numeric evidence.
"""

from __future__ import annotations

from .certificates import CertificateGapError
from .hf_invariants import Evaluator, Interval
from .knotexpr import Cable, Mirror, Sum, _Record, check_size, normalize
from .laurent import vanishes_at_unit_root
from .signatures import SignatureUnavailable

# rule identifiers, stable across output formats
RULE_V0 = "v0_positive"
RULE_TAU_POS = "tau_positive"
RULE_MIRROR_V0 = "mirror_v0_positive"
RULE_TAU_NEG = "tau_negative"
RULE_A = "d1_nonzero_and_tau_negative"
RULE_B = "mirror_d1_nonzero_and_tau_positive"
RULE_C = "signature_both_signs"
RULE_COMBINED = "one_sided_combination"
RULE_COMPOSITE = "composite_cable_construction"

_STATEMENTS = {
    RULE_V0: "V_0 > 0 forces d1 = -2*V_0 < 0, while sliceness in a "
    "negative-definite 4-manifold forces d1 = 0",
    RULE_TAU_POS: "tau > 0, while sliceness in a negative-definite 4-manifold "
    "forces tau <= 0",
    RULE_MIRROR_V0: "the mirror has d1 < 0, while sliceness in a "
    "positive-definite 4-manifold makes the mirror slice in a negative-definite one",
    RULE_TAU_NEG: "tau < 0, while sliceness in a positive-definite 4-manifold "
    "forces tau >= 0",
    RULE_A: "d1 != 0 rules out negative-definite targets and tau < 0 rules out "
    "positive-definite targets (mirror argument)",
    RULE_B: "d1 of the mirror != 0 rules out positive-definite targets and "
    "tau > 0 rules out negative-definite targets",
    RULE_C: "the Levine-Tristram signature takes values >= 2 and <= -2 at "
    "regular angles away from Alexander roots, which no knot slice in a "
    "definite 4-manifold can do",
    RULE_COMBINED: "both one-sided verdicts are obstructed",
    RULE_COMPOSITE: "V_0 drops under the mirrored (n,1)-cable summand while "
    "tau goes negative, so d1 != 0 and tau < 0 for the composite",
}

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


class Reason(_Record):
    __slots__ = ("rule", "statement", "evidence")


class Verdict(_Record):
    """target is negative_definite, positive_definite or any_definite;
    status is obstructed or inconclusive."""

    __slots__ = ("target", "status", "reasons")

    @property
    def obstructed(self) -> bool:
        return self.status == OBSTRUCTED


class KinkinessBound(_Record):
    __slots__ = ("k_plus_lo", "k_minus_lo")


def _reason(rule, **evidence) -> Reason:
    return Reason(rule, _STATEMENTS[rule], evidence)


def _verdict(target, reasons) -> Verdict:
    return Verdict(target, OBSTRUCTED if reasons else INCONCLUSIVE, reasons)


def obstruct_negative_definite(e, ev: Evaluator) -> Verdict:
    """Obstruct sliceness in every negative-definite 4-manifold, reading
    d1, V_0 and tau from the session ev."""
    reasons = []
    d = ev.d1(e)
    if d.hi < 0:
        reasons.append(_reason(RULE_V0, d1=d, v0=ev.v_seq(e).at(0)))
    t = ev.tau(e)
    if t.lo >= 1:
        reasons.append(_reason(RULE_TAU_POS, tau=t))
    return _verdict("negative_definite", reasons)


def obstruct_positive_definite(e, ev: Evaluator) -> Verdict:
    """Obstruct sliceness in every positive-definite 4-manifold (mirror
    dual), reading d1 of the mirror and tau from the session ev."""
    reasons = []
    dm = ev.d1(Mirror(e))
    if dm.hi < 0:
        reasons.append(_reason(RULE_MIRROR_V0, d1_mirror=dm))
    t = ev.tau(e)
    if t.hi <= -1:
        reasons.append(_reason(RULE_TAU_NEG, tau=t))
    return _verdict("positive_definite", reasons)


def _signature_evidence(e, ev):
    """Evidence for the mixed-sign signature rule, or None.

    Looks for regular rational angles avoiding Alexander-polynomial roots
    where sigma is >= 2 and <= -2; root avoidance is checked exactly by
    laurent.vanishes_at_unit_root.
    """
    try:
        fn = ev.sigma(e)
        alex = ev.alexander(e)
    except (SignatureUnavailable, CertificateGapError):
        return None
    pos = neg = None
    for lo, hi, value in fn.pieces():
        if pos is None and value >= 2:
            x = _regular_sample(lo, hi, alex)
            if x is not None:
                pos = (x, value)
        if neg is None and value <= -2:
            x = _regular_sample(lo, hi, alex)
            if x is not None:
                neg = (x, value)
        if pos and neg:
            return {
                "positive_at": pos[0],
                "positive_value": pos[1],
                "negative_at": neg[0],
                "negative_value": neg[1],
            }
    return None


def _regular_sample(lo, hi, alex):
    # rational point of (lo, hi) that is not a root angle of alex
    for k in range(1, 64):
        x = lo + (hi - lo) / (1 << k)
        if not vanishes_at_unit_root(alex, x):
            return x
    return None


def obstruct_definite(e, ev: Evaluator) -> Verdict:
    """Obstruct sliceness in every definite 4-manifold, reading d1, tau,
    the signature function and the Alexander polynomial from the session ev.

    Fires on: (a) d1 != 0 certified with tau <= -1; (b) the mirror-dual
    form; (c) the signature taking both signs; else on both one-sided
    verdicts being obstructed, which happens iff d1 < 0 and d1 of the
    mirror < 0.  Proof: the negative-definite verdict fires on V0 (d1 < 0)
    or TAU_POS (tau >= 1), the positive-definite one on MIRROR_V0 (d1 of
    the mirror < 0) or TAU_NEG (tau <= -1).  Of the four pairs, V0 with
    TAU_NEG is rule (a), TAU_POS with MIRROR_V0 is rule (b), and TAU_POS
    with TAU_NEG leaves tau an empty interval.  So when (a) and (b) do
    not fire, both verdicts are obstructed iff V0 and MIRROR_V0 fire, and
    then each fires alone: TAU_POS beside MIRROR_V0 would be (b), TAU_NEG
    beside V0 would be (a).
    """
    reasons = []
    d = ev.d1(e)
    t = ev.tau(e)
    if d.hi < 0 and t.hi <= -1:
        reasons.append(_reason(RULE_A, d1=d, tau=t))
    dm = ev.d1(Mirror(e))
    if dm.hi < 0 and t.lo >= 1:
        reasons.append(_reason(RULE_B, d1_mirror=dm, tau=t))
    sig_ev = _signature_evidence(e, ev)
    if sig_ev is not None:
        reasons.append(_reason(RULE_C, **sig_ev))
    if not reasons and d.hi < 0 and dm.hi < 0:
        reasons.append(
            _reason(RULE_COMBINED, negative_rules=[RULE_V0], positive_rules=[RULE_MIRROR_V0])
        )
    return _verdict("any_definite", reasons)


class HypothesisCheck(_Record):
    __slots__ = ("name", "certified", "evidence")


class CompositeReport(_Record):
    """Hypothesis audit and verdict for K # (J_{n,1})* composites."""

    __slots__ = ("expression", "hypotheses", "verdict")


def composite_cable_obstruction(K, J, n: int, ev: Evaluator) -> CompositeReport:
    """Check V_0(K) > V_0(J), tau(K) >= 1, tau(J) >= 1, tau(K) < n*tau(J);
    when all four are certified, the composite K # (J_{n,1})* is obstructed
    in every definite 4-manifold.  V_0 and tau are read from the session
    ev, and the composite is sized against ev.db.

    Raises ValueError for n < 1, and SizeLimitError for a composite past
    the limits of knotexpr.check_size (so n <= MAX_GENUS).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    expr = normalize(Sum((K, Mirror(Cable(n, 1, J)))))
    check_size(expr, ev.db)
    v0K = ev.v_seq(K).at(0)
    v0J = ev.v_seq(J).at(0)
    tK = ev.tau(K)
    tJ = ev.tau(J)
    n_tJ = Interval(n * tJ.lo, n * tJ.hi)
    checks = [
        HypothesisCheck("V0(K) > V0(J)", v0K.lo > v0J.hi, {"v0_K": v0K, "v0_J": v0J}),
        HypothesisCheck("tau(K) >= 1", tK.lo >= 1, {"tau_K": tK}),
        HypothesisCheck("tau(J) >= 1", tJ.lo >= 1, {"tau_J": tJ}),
        HypothesisCheck("tau(K) < n*tau(J)", tK.hi < n_tJ.lo, {"tau_K": tK, "n_tau_J": n_tJ}),
    ]
    reasons = []
    if all(c.certified for c in checks):
        reasons.append(_reason(RULE_COMPOSITE, v0_K=v0K, v0_J=v0J, tau_K=tK, tau_J=tJ, n=n))
    verdict = _verdict("any_definite", reasons)
    return CompositeReport(expression=expr, hypotheses=checks, verdict=verdict)


def kinkiness_bounds(e, ev: Evaluator) -> KinkinessBound:
    """Lower bounds for the minimal numbers of positive/negative kinks.

    nu+ <= k+ and -k- <= tau <= k+, applied to the knot and its mirror,
    read from nu+ alone, through the session ev.  The lower end of
    ev.nu_plus(K) is max(raw, tau(K).lo) with raw >= 0, which already
    bounds k+ by tau and by 0.  The mirror's lower end holds tau(K*).lo,
    and tau(K*) = -tau(K) exactly, so it is -tau(K).hi: the Mirror rule
    negates its child's interval, and a mirrored sum adds the negated
    intervals of its parts and meets its fallback window, which is the
    sum's own window negated.
    """
    return KinkinessBound(ev.nu_plus(e).lo, ev.nu_plus(Mirror(e)).lo)
