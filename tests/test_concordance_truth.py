"""Ground truth from concordance: knots whose invariants topology fixes.

X # X* is slice for every knot X, so every concordance invariant of it is
known: each V_k is 0, so is tau, nu+ and d1, the Levine-Tristram signature
vanishes, no definite-filling obstruction can fire and both kinkiness
bounds are 0.  A cable of a slice knot is concordant to the same cable of
the unknot, so cable(p, q, X # X*) has the invariants of cable(p, q, O),
a torus knot or the unknot, and cable(p, q, X # X*) # cable(p, q, O)* is
slice again.  These hold under any registry that some knot satisfies, so
the checks run under the full registry, under one that forgets the
Whitehead double's tau and V_0, and under one with atoms that have no
genus bound.

The reference cable(p, q, O) is read through the engine too.  Where the
engine pins it, as it does every T(p, q) with q > 0, the cable's interval
must contain that value; where it leaves an interval, as for V_0 of a
mirrored torus knot, the two enclosures of one true value must meet.  The
signature is exact, so the cable's must equal the reference's.

What this oracle cannot catch.  X # X* is its own mirror, so a fault that
is odd under mirroring cancels in it: a sign slip in the mirror rule, a
V_0 lower bound that forgets to flip a summand, or a tau window that reads
the wrong end of the mirror's nu+.  A slice companion has V = 0 at every
index, so a Wu cable step that misreads its companion's V never shows.
Those faults need an independent oracle of the V-sequences themselves,
such as the CFK-infinity of L-space sums; this one complements it and does
not replace it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defslice.hf_invariants import Evaluator
from defslice.knotexpr import Cable, Mirror, SizeLimitError, Sum, UNKNOT, check_size, normalize
from defslice.obstructions import (
    kinkiness_bounds,
    obstruct_definite,
    obstruct_negative_definite,
    obstruct_positive_definite,
)
from defslice.signatures import SignatureUnavailable

from strategies import ATOM_NAMES, expressions_any_cable
from test_hf_invariants import GENUSLESS_DB
from workload_inputs import workload_reports

CABLE_PQ = [(2, 1), (2, 3), (3, 2), (2, -3)]
GENUSLESS_NAMES = ["G", "H", "G0"]


def _built(e, db):
    """e in normal form, or None when it is past the size limits."""
    e = normalize(e)
    try:
        check_size(e, db)
    except SizeLimitError:
        return None
    return e


def _sigma(ev, e):
    try:
        return ev.sigma(e)
    except SignatureUnavailable:
        return None


def _meets(iv, ref):
    """Whether iv can hold the true value that ref encloses: it contains
    ref's value where ref is exact, and meets ref otherwise."""
    return iv.lo <= ref.hi and ref.lo <= iv.hi


def check_slice(k, ev):
    vs = ev.v_seq(k)
    assert not any(vs.lo), (k, vs)
    for name in ("tau", "nu_plus", "d1"):
        iv = getattr(ev, name)(k)
        assert iv.lo <= 0 <= iv.hi, (k, name, iv)
    sig = _sigma(ev, k)
    assert sig is None or sig.is_zero, (k, sig)
    for verdict in (obstruct_negative_definite, obstruct_positive_definite, obstruct_definite):
        v = verdict(k, ev)
        assert not v.obstructed, (k, v)
    kb = kinkiness_bounds(k, ev)
    assert kb.k_plus_lo == 0 and kb.k_minus_lo == 0, (k, kb)


def check_concordant(c, ref, ev):
    vs, ref_vs = ev.v_seq(c), ev.v_seq(ref)
    for i in range(max(len(vs), len(ref_vs))):
        assert _meets(vs.at(i), ref_vs.at(i)), (c, i, vs, ref_vs)
    for name in ("tau", "nu_plus", "d1"):
        iv, ref_iv = getattr(ev, name)(c), getattr(ev, name)(ref)
        assert _meets(iv, ref_iv), (c, name, iv, ref_iv)
    sig = _sigma(ev, c)
    assert sig is None or sig == _sigma(ev, ref), (c, sig)


def check_cable(slice_knot, p, q, ev):
    """Check cable(p, q, slice_knot) against cable(p, q, O), and its sum
    with cable(p, q, O)* as a slice knot.  Return False, checking nothing,
    when either is past the size limits."""
    ref = normalize(Cable(p, q, UNKNOT))
    c = _built(Cable(p, q, slice_knot), ev.db)
    difference = None if c is None else _built(Sum((c, Mirror(ref))), ev.db)
    if difference is None:
        return False
    check_concordant(c, ref, ev)
    check_slice(difference, ev)
    return True


def test_workload_expressions(db):
    # X # X* for every report expression of the benchmark workloads, and
    # the cables of every third one
    exprs = list(dict.fromkeys(workload_reports(("cables", "cli-mix", "wide-sums"), seeds=(1, 2, 3))))
    assert len(exprs) > 700
    ev = Evaluator(db)
    checked = skipped = 0
    for i, x in enumerate(exprs):
        slice_knot = _built(Sum((x, Mirror(x))), db)
        if slice_knot is None:
            skipped += 1
            continue
        check_slice(slice_knot, ev)
        checked += 1
        for p, q in CABLE_PQ if i % 3 == 0 else ():
            if check_cable(slice_knot, p, q, ev):
                checked += 1
            else:
                skipped += 1
    assert skipped * 50 < checked, (skipped, checked)


@pytest.mark.parametrize("which", ["db", "degraded_db", "genusless"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_expressions(db, degraded_db, which, data):
    registry = {"db": db, "degraded_db": degraded_db, "genusless": GENUSLESS_DB}[which]
    names = ATOM_NAMES + GENUSLESS_NAMES if which == "genusless" else ATOM_NAMES
    x = data.draw(expressions_any_cable(max_leaves=6, names=names))
    p, q = data.draw(st.sampled_from(CABLE_PQ))
    slice_knot = _built(Sum((x, Mirror(x))), registry)
    if slice_knot is not None:
        ev = Evaluator(registry)
        check_slice(slice_knot, ev)
        check_cable(slice_knot, p, q, ev)
