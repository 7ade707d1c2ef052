"""Command-line front end: invariant reports, verdicts, and verification suites.

Every command and suite is declared once, in COMMANDS: its help line, its
handler, its positionals and its flags.  main reads a well-formed argv
from the table itself (_read) and leaves every other argv, -h and every
mistake, to the argparse tree that _parser() builds from the same table,
so help, usage lines and error messages are argparse's own.  argparse,
with the shutil and locale it imports, loads only then.

Exit codes: 0 success / all rows pass, 1 suite or check failure, 2 parse
error, 3 certificate gap under --strict.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from math import inf
from types import SimpleNamespace

from .certificates import CertificateGapError, default_db, load_registry
from .hf_invariants import Evaluator, Interval, lens_d
from .knotexpr import (
    Atom,
    Cable,
    Mirror,
    ParseError,
    SizeLimitError,
    Sum,
    WHITEHEAD_TREFOIL,
    _Record,
    check_size,
    normalize,
    parse,
    render,
    torus_atom,
)
from .laurent import LaurentPoly
from .obstructions import (
    RULE_A,
    RULE_C,
    composite_cable_obstruction,
    kinkiness_bounds,
    obstruct_definite,
    obstruct_negative_definite,
    obstruct_positive_definite,
)
from .qform_verify import bcg_cobordism_check
from .signatures import (
    JumpPointError,
    SigFn,
    SignatureUnavailable,
    sigma,
    signature_combination_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_GAP = 3

# Most rows that one suite or check-bcg run evaluates: the length of an
# A..B range, and for thm2 the number of (k, l) pairs.  The default ranges
# of lens and thm2 reach it.  Each family row is also within the expression
# size limits of knotexpr.check_size, which bound its cost.  From
# interpreter start, median of seven runs (py3.11.7, 2-vCPU VM): at the
# limit, `suite lens` takes 0.05 s, `suite bcg` 0.07 s, `check-bcg` 0.08 s,
# `suite thm1 --n 407..506` 0.16 s, and `suite thm2 --k 6..15 --l 441..450`
# and `--k 22..31 --l 377..386`, the slowest thm2 rows found, 0.10 s.  With
# the limit lifted, `suite lens --n 1..100000` took 3.0 s, `check-bcg --n
# 1..20000` 5.7 s and `suite thm1 --n 1..506` 0.72 s.
MAX_ROWS = 100

# Largest surgery coefficient numerator P: `surgery` evaluates one
# correction term per Spin^c label i < P, about 40 us each.  At the limit
# `surgery T(2,3) 10000 1 --json` takes 0.71 s; 100000 took 4.1 s and
# 1000000 ran past a 30 s timeout.
MAX_SURGERY_P = 10_000


# Most digits in the numerator or the denominator of a `sigma --at` angle
# as written, before it is reduced: A and B of A/B, and for a decimal I.F
# with exponent E the integers IF * 10^max(E, 0) and 10^(len(F) - min(E, 0))
# that Fraction multiplies out.  The angle is printed with str() and x =
# angle/2 has one digit more, so 601 digits print under any per-process
# int-to-str limit Python allows (its floor is 640).  Before the limit,
# `sigma T(2,3) --at 1e10000000` ran 14 s (py3.11, 2-vCPU VM) to build the
# angle and then failed to print it.
MAX_AT_DIGITS = 600

# A superset of the literals Fraction(str) accepts, with the digit strings
# of the numerator, denominator, fractional part and exponent
_AT_LITERAL = re.compile(
    r"\s*[-+]?([\d_]*)(?:\s*/\s*([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*"
)


# ---------------------------------------------------------------- families

def family_kkl(k: int, l: int):
    """(#^(2k+1) Wh(T(2,3))) # ((Wh(T(2,3)))_{l+2k+1,1})*: topologically
    slice with kinkiness bounds k+ >= k, k- >= l."""
    wh = Atom(WHITEHEAD_TREFOIL)
    parts = tuple([wh] * (2 * k + 1)) + (Mirror(Cable(l + 2 * k + 1, 1, wh)),)
    return normalize(Sum(parts))


def family_jk(k: int):
    """T(2,2k+9) # (#^(k+5) T(2,3))*: mixed-sign signature family."""
    parts = (torus_atom(2, 2 * k + 9),) + tuple(
        Mirror(torus_atom(2, 3)) for _ in range(k + 5)
    )
    return normalize(Sum(parts))


# ---------------------------------------------------------------- encoding

def _json_value(x):
    """JSON form of a typed value in the human `evidence:` line and the
    suite rows; the --json writer does not call it.  A Fraction is
    {num, den}, an interval {lo, hi} with an infinite end as null, any
    other record (verdict, reason, bound, check item: a knotexpr._Record)
    its fields in order.  Its _json_end, which the writer's interval text
    also calls, is the one place where JSON spells an unbounded end; no
    other float has a JSON form, so an infinity or a NaN anywhere else is
    refused, and so is a LaurentPoly."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, Interval):
        return {"lo": _json_end(x.lo), "hi": _json_end(x.hi)}
    if isinstance(x, _Record):
        return {name: getattr(x, name) for name in x.__slots__}
    raise TypeError(f"{type(x).__name__} has no JSON form")


def _json_end(v):
    return None if v in (-inf, inf) else v


_encode_str = json.encoder.encode_basestring_ascii


def _print_json(data):
    """Print data as json.dumps(data, indent=2) prints it when its default
    gives each engine value its one JSON form (tests/oracles.py:json_indent2).
    The form is chosen by exact type, so a subclass of a JSON type is refused,
    as are a key that is not a str and a value of any other type, floats too."""
    print(_text(data, "\n"))


def _text(x, nl):
    """The JSON text of x on a line whose newline and indent are nl."""
    writer = _WRITERS.get(type(x))
    if writer is not None:
        return writer(x, nl)
    if isinstance(x, _Record):
        return _members(zip(x.__slots__, map(x.__getattribute__, x.__slots__)), nl)
    raise TypeError(f"{type(x).__name__} has no JSON form")


def _members(items, nl):
    inner = nl + "  "
    texts = []
    for key, value in items:
        if type(key) is not str:
            raise TypeError(f"key {key!r} is not a str")
        texts.append(f"{_encode_str(key)}: {_WRITERS.get(type(value), _text)(value, inner)}")
    if not texts:
        return "{}"
    return "{" + inner + ("," + inner).join(texts) + nl + "}"


def _array(x, nl):
    if not x:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_WRITERS.get(type(v), _text)(v, inner) for v in x]) + nl + "]"


def _fraction_text(x, nl):
    inner = nl + "  "
    return f'{{{inner}"num": {x.numerator},{inner}"den": {x.denominator}{nl}}}'


def _interval_text(x, nl):
    inner = nl + "  "
    lo, hi = x.lo, x.hi
    if type(lo) is not int:
        lo = _text(_json_end(lo), inner)
    if type(hi) is not int:
        hi = _text(_json_end(hi), inner)
    return f'{{{inner}"lo": {lo},{inner}"hi": {hi}{nl}}}'


def _poly_text(x, nl):
    items = x.items()
    if not items:
        return "[]"
    i = nl + "  "
    j = i + "  "
    return "[" + ",".join(f"{i}[{j}{e},{j}{c}{i}]" for e, c in items) + nl + "]"


def _sigma_text(x, nl):
    # pieces() is never empty, each value is an int, and each piece starts
    # where the one before it ends, so each end is written once
    i = nl + "  "
    j = i + "  "
    pieces = x.pieces()
    ends = [_fraction_text(lo, j) for lo, _, _ in pieces] + [_fraction_text(pieces[-1][1], j)]
    return "[" + ",".join(
        f'{i}{{{j}"from": {lo},{j}"to": {hi},{j}"value": {v}{i}}}'
        for lo, hi, (_, _, v) in zip(ends, ends[1:], pieces)
    ) + nl + "]"


# The writer of each value type, keyed by exact type, which the container
# writers call without _text's own lookup: a Fraction is {num, den}, an
# Interval {lo, hi}, a LaurentPoly its [exp, coeff] pairs in increasing
# exponent and a SigFn its pieces {from, to, value}
_WRITERS = {
    str: lambda x, nl: _encode_str(x),
    int: lambda x, nl: int.__repr__(x),
    bool: lambda x, nl: "true" if x else "false",
    type(None): lambda x, nl: "null",
    dict: lambda x, nl: _members(x.items(), nl),
    list: _array,
    tuple: _array,
    Fraction: _fraction_text,
    Interval: _interval_text,
    LaurentPoly: _poly_text,
    SigFn: _sigma_text,
}


# ---------------------------------------------------------------- report

def build_report(text: str, db) -> dict:
    ev = Evaluator(db)
    e = parse(text, db)
    warnings = []
    data = {"schema": 1, "expression": text, "normalized": render(e)}
    try:
        alex = ev.alexander(e)
        data["alexander"] = alex
        data["alexander_pretty"] = alex.pretty()
        data["topologically_slice_certified"] = alex == LaurentPoly.one()
    except CertificateGapError as exc:
        warnings.append(str(exc))
        data["alexander"] = None
        data["alexander_pretty"] = None
        data["topologically_slice_certified"] = None
    g = ev.genus_bound(e)
    vs = ev.v_seq(e)
    data["genus_bound"] = _json_end(g)
    data["v"] = [vs.at(k) for k in range(min(g, len(vs) - 1, 24) + 1)]
    # V_k = 0 exactly from the genus bound on
    data["v_exact_tail_from"] = _json_end(g)
    data["tau"] = ev.tau(e)
    data["nu_plus"] = ev.nu_plus(e)
    data["d1"] = ev.d1(e)
    try:
        data["sigma"] = ev.sigma(e)
    except SignatureUnavailable as exc:
        warnings.append(str(exc))
        data["sigma"] = None
    # the verdicts read the signature and the Alexander polynomial only
    # through _signature_evidence, which turns their gaps into no evidence
    data["verdicts"] = [
        obstruct_negative_definite(e, ev),
        obstruct_positive_definite(e, ev),
        obstruct_definite(e, ev),
    ]
    data["kinkiness"] = kinkiness_bounds(e, ev)
    data["warnings"] = warnings
    return data


def print_report(data):
    print(f"expression:  {data['expression']}")
    print(f"normalized:  {data['normalized']}")
    print(f"alexander:   {data['alexander_pretty'] or 'unavailable'}")
    ts = data["topologically_slice_certified"]
    print(f"topologically slice (certified): {'yes' if ts else 'no' if ts is not None else 'unavailable'}")
    print(f"genus bound: {data['genus_bound'] if data['genus_bound'] is not None else 'unknown'}")
    print(f"tau: {data['tau']}    nu+: {data['nu_plus']}    d1: {data['d1']}")
    vals = "  ".join(f"V_{k}={iv}" for k, iv in enumerate(data["v"]))
    print(f"V-sequence:  {vals}")
    if data["v_exact_tail_from"] is not None:
        print(f"             (V_k = 0 for k >= {data['v_exact_tail_from']})")
    if data["sigma"] is not None:
        pieces = data["sigma"].pieces()
        if len(pieces) == 1 and pieces[0][2] == 0:
            print("sigma:       0 on (0, 1/2]")
        else:
            print("sigma:")
            for lo, hi, v in pieces:
                print(f"             ({lo}, {hi}): {v}")
    else:
        print("sigma:       unavailable")
    print("verdicts:")
    for v in data["verdicts"]:
        line = f"  {v.target}: {v.status.upper() if v.obstructed else v.status}"
        if v.reasons:
            line += " (" + ", ".join(r.rule for r in v.reasons) + ")"
        print(line)
        for r in v.reasons:
            print(f"      {r.rule}: {r.statement}")
            evidence = json.dumps(r.evidence, default=_json_value, allow_nan=False)
            print(f"      evidence: {evidence}")
    kb = data["kinkiness"]
    print(f"kinkiness:   k+ >= {kb.k_plus_lo}, k- >= {kb.k_minus_lo}")
    for w in data["warnings"]:
        print(f"warning: {w}")


def cmd_report(args, db) -> int:
    data = build_report(args.expr, db)
    if args.json:
        _print_json(data)
    else:
        print_report(data)
    if args.strict and data["warnings"]:
        return EXIT_GAP
    return EXIT_OK


# ---------------------------------------------------------------- suites

def _checked(es, db):
    """The family expressions as a list, refusing any past the size limits
    before a row is evaluated."""
    es = list(es)
    for e in es:
        check_size(e, db)
    return es


def _suite_thm1(args, ev):
    """Rows for K_n = (#^3 Wh(T(2,3))) # ((Wh(T(2,3)))_{n+3,1})*, the
    composite K # (J_{n+3,1})* that composite_cable_obstruction builds with
    K = #^3 Wh(T(2,3)) and J = Wh(T(2,3)), refusing it past the size limits.
    K_n is topologically slice, obstructed in every definite 4-manifold, and
    tau = -n.  A row passes when K_n meets the paper's conclusion (tau = -n,
    V_0 >= 1, Alexander polynomial 1, rule A) and the composite's four
    hypotheses are certified."""
    wh = Atom(WHITEHEAD_TREFOIL)
    k = Sum((wh, wh, wh))
    rows = []
    for n in _range(args.n):
        composite = composite_cable_obstruction(k, wh, n + 3, ev)
        e = composite.expression
        t = ev.tau(e)
        v0 = ev.v_seq(e).at(0)
        slice_ok = ev.alexander(e) == LaurentPoly.one()
        verdict = obstruct_definite(e, ev)
        rule_a = any(r.rule == RULE_A for r in verdict.reasons)
        ok = (
            t.is_exact
            and t.value == -n
            and v0.lo >= 1
            and slice_ok
            and verdict.obstructed
            and rule_a
            and composite.verdict.obstructed
        )
        rows.append(
            {
                "n": n,
                "expression": render(e),
                "tau": _json_value(t),
                "v0": _json_value(v0),
                "topologically_slice": slice_ok,
                "verdict": verdict.status,
                "rule_a": rule_a,
                "pass": ok,
            }
        )
    return rows


def _suite_thm2(args, ev):
    rows = []
    ks, ls = _range(args.k), _range(args.l)
    params = [(k, l) for k in ks for l in ls]
    if len(params) > MAX_ROWS:
        raise SizeLimitError(f"{len(params)} (k, l) pairs, above the limit {MAX_ROWS}")
    for (k, l), e in zip(params, _checked((family_kkl(k, l) for k, l in params), ev.db)):
        t = ev.tau(e)
        np_ = ev.nu_plus(e)
        kb = kinkiness_bounds(e, ev)
        ok = (
            t.is_exact
            and t.value == -l
            # k_plus_lo is np_.lo, so this is also nu+ >= k
            and kb.k_plus_lo >= k
            and kb.k_minus_lo >= l
        )
        rows.append(
            {
                "k": k,
                "l": l,
                "tau": _json_value(t),
                "nu_plus": _json_value(np_),
                "k_plus_lo": kb.k_plus_lo,
                "k_minus_lo": kb.k_minus_lo,
                "pass": ok,
            }
        )
    return rows


def _arc_samples(k: int):
    # three interior rational angles of theta in (pi/(2k+9), 3pi/(2k+9))
    q = 2 * k + 9
    return [Fraction(2 + i, 4 * q) for i in (1, 2, 3)]


def _suite_remark(args, ev):
    rows = []
    ks = _range(args.k)
    es = dict(zip(ks, _checked((family_jk(k) for k in ks), ev.db)))
    for k, e in es.items():
        fn = ev.sigma(e)
        at_minus_one = fn.at_minus_one()
        arc_vals = [fn.value(x) for x in _arc_samples(k)]
        verdict = obstruct_definite(e, ev)
        rule_c = any(r.rule == RULE_C for r in verdict.reasons)
        ok = (
            at_minus_one == 2
            and all(v == -2 for v in arc_vals)
            and verdict.obstructed
            and rule_c
        )
        rows.append(
            {
                "k": k,
                "sigma_at_-1": at_minus_one,
                "sigma_on_arc": arc_vals,
                "verdict": verdict.status,
                "rule_signature": rule_c,
                "pass": ok,
            }
        )
    if all(k in es for k in (1, 2, 3, 4)):
        chk = signature_combination_check([es[k] for k in (1, 2, 3, 4)], 3, ev.db)
        rows.append(
            {
                "independence": "J_1..J_4, bound 3",
                "result": chk.summary(),
                "pass": chk.independent,
            }
        )
    return rows


def _suite_bcg(args, ev):
    rows = []
    for n in _range(args.n):
        rep = bcg_cobordism_check(n)
        rows.append(
            {
                "n": n,
                "c1_sq": _json_value(rep.c1_sq),
                "c1_cobordism": _json_value(rep.c1_cobordism),
                "sigma_cobordism": rep.sigma_cobordism,
                "failed": [item.name for item in rep.items if not item.passed],
                "pass": rep.passed,
            }
        )
    return rows


def _suite_lens(args, ev):
    rows = []
    id1 = 4 * lens_d(2, 1, 0) == 1
    for n in _range(args.n):
        id2 = 4 * lens_d(2 * n, 1, n) == -1
        id3 = 4 * lens_d(2 * n + 2, 1, n) == 1 - Fraction(2 * n, n + 1)
        rows.append(
            {
                "n": n,
                "4d(S3_2,0)=1": id1,
                "4d(S3_2n,n)=-1": id2,
                "4d(S3_2n+2,n)=1-2n/(n+1)": id3,
                "pass": id1 and id2 and id3,
            }
        )
    return rows


def cmd_suite(args, db) -> int:
    rows = args.rows(args, Evaluator(db))
    passed = all(r["pass"] for r in rows)
    if args.json:
        _print_json({"schema": 1, "suite": args.name, "rows": rows, "passed": passed})
    else:
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            fields = "  ".join(
                f"{k}={v}" for k, v in r.items() if k != "pass"
            )
            print(f"[{status}] {fields}")
        print(f"suite {args.name}: {'PASS' if passed else 'FAIL'} ({len(rows)} rows)")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------- surgery

def cmd_surgery(args, db) -> int:
    if args.p < 1 or args.q < 1:
        raise ValueError(f"surgery coefficient must have p, q > 0, got {args.p}/{args.q}")
    if args.p > MAX_SURGERY_P:
        raise SizeLimitError(
            f"surgery coefficient numerator {args.p} is above the limit {MAX_SURGERY_P}"
        )
    e = parse(args.expr, db)
    ev = Evaluator(db)
    ds = [ev.surgery_d(e, args.p, args.q, i) for i in range(args.p)]
    if args.json:
        rows = [{"i": i, "d": d.value if d.is_exact else d} for i, d in enumerate(ds)]
        _print_json(
            {"schema": 1, "expression": args.expr, "p": args.p, "q": args.q, "rows": rows}
        )
    else:
        print(f"d(S^3_{{{args.p}/{args.q}}}({render(e)}), i):")
        for i, d in enumerate(ds):
            print(f"  i={i}: {d}")
    return EXIT_OK


# ---------------------------------------------------------------- sigma

def _check_at_digits(spec: str):
    """Refuse an --at angle whose numerator or denominator as written has
    more than MAX_AT_DIGITS digits, before Fraction multiplies it out; a
    spec that is no fraction literal is left for Fraction to refuse."""
    m = _AT_LITERAL.fullmatch(spec)
    if m is None:
        return
    num, den, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
    if den:
        digits = max(len(num), len(den))
    else:
        # an exponent of more than 9 digits is past the limit whatever its value
        mag = exp.lstrip("+-").lstrip("0")
        e = int(mag or "0") if len(mag) <= 9 else 10**9
        if exp.startswith("-"):
            e = -e
        digits = max(len(num) + len(frac) + max(e, 0), 1 + len(frac) - min(e, 0))
    if digits > MAX_AT_DIGITS:
        raise SizeLimitError(
            f"--at angle has more than {MAX_AT_DIGITS} digits in its numerator or denominator"
        )


def _at_angle(spec: str) -> Fraction:
    """theta/pi of an --at spec, refused unless it lies in (0, 1]."""
    _check_at_digits(spec)
    try:
        theta = Fraction(spec)
    except ZeroDivisionError:
        raise ValueError(f"--at {spec}: zero denominator") from None
    if not 0 < theta <= 1:
        raise ValueError(f"--at {spec}: theta/pi must lie in (0, 1]")
    return theta


def cmd_sigma(args, db) -> int:
    e = parse(args.expr, db)
    # every angle is checked before the signature, which may be unavailable
    thetas = [_at_angle(spec) for spec in args.at or []]
    try:
        fn = sigma(e, db)
    except SignatureUnavailable as exc:
        print(f"signature unavailable: {exc}", file=sys.stderr)
        return EXIT_GAP if args.strict else EXIT_OK
    queries = []
    for theta in thetas:
        x = theta / 2
        entry = {"theta_over_pi": theta, "x": x}
        try:
            entry["value"] = fn.value(x)
        except JumpPointError as exc:
            entry["jump"] = {"left": exc.left, "right": exc.right}
        queries.append(entry)
    if args.json:
        data = {
            "schema": 1,
            "expression": args.expr,
            "pieces": fn,
            "queries": queries,
        }
        _print_json(data)
    else:
        print(f"sigma({render(e)}) on (0, 1/2], omega = e^(2*pi*i*x):")
        for lo, hi, v in fn.pieces():
            print(f"  ({lo}, {hi}): {v}")
        for entry in queries:
            if "value" in entry:
                print(f"  at theta = {entry['theta_over_pi']}*pi: {entry['value']}")
            else:
                j = entry["jump"]
                print(
                    f"  at theta = {entry['theta_over_pi']}*pi: jump point "
                    f"(left {j['left']}, right {j['right']})"
                )
    return EXIT_OK


# ---------------------------------------------------------------- check-bcg

def cmd_check_bcg(args, db) -> int:
    reports = [bcg_cobordism_check(n) for n in _range(args.n)]
    passed = all(r.passed for r in reports)
    if args.json:
        data = {
            "schema": 1,
            "rows": [
                {
                    "n": r.n,
                    "passed": r.passed,
                    "c1_sq": r.c1_sq,
                    "c1_outside": r.c1_outside,
                    "c1_cobordism": r.c1_cobordism,
                    "sigma_cobordism": r.sigma_cobordism,
                    "b2_cobordism": r.b2_cobordism,
                    "items": r.items,
                    "skipped": r.skipped,
                }
                for r in reports
            ],
            "passed": passed,
        }
        _print_json(data)
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"[{status}] n={r.n}: c1^2={r.c1_sq}, c1_W^2={r.c1_cobordism}, "
                f"sigma_W={r.sigma_cobordism}, b2_W={r.b2_cobordism}"
            )
            for item in r.items:
                if not item.passed:
                    print(f"    FAILED {item.name}: {item.detail}")
        for note in reports[0].skipped:
            print(f"skipped: {note}")
        print(f"cobordism check: {'PASS' if passed else 'FAIL'} ({len(reports)} rows)")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------- independence

def cmd_independence(args, db) -> int:
    knots = [parse(s, db) for s in args.exprs]
    chk = signature_combination_check(knots, args.bound, db)
    if args.json:
        _print_json(
            {
                "schema": 1,
                "expressions": args.exprs,
                "bound": chk.bound,
                "combinations": chk.count,
                "dependent": chk.dependent,
                "independent": chk.independent,
            }
        )
    else:
        print(chk.summary())
    return EXIT_OK if chk.independent else EXIT_FAIL


# ---------------------------------------------------------------- main

def _range(s):
    a, dots, b = s.partition("..")
    try:
        lo = int(a)
        hi = int(b) if dots else lo
    except ValueError:
        raise ValueError(f"bad range {s!r}") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range {s!r}")
    if hi - lo + 1 > MAX_ROWS:
        raise SizeLimitError(f"range {s!r} has {hi - lo + 1} values, above the limit {MAX_ROWS}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------- commands

class Command:
    """One entry of the command table: its help line (None for a suite,
    which argparse then lists by name only), the attributes it sets, its
    handler among them, its positionals and its flags, each a name and the
    keywords that add_argument takes, and for `suite` the suites that
    `name` chooses from."""

    __slots__ = ("help", "defaults", "positionals", "flags", "suites")

    def __init__(self, help, defaults, positionals=(), flags=(), suites=None):
        self.help, self.defaults, self.positionals = help, defaults, positionals
        self.flags, self.suites = flags, suites


_JSON = (("--json", {"action": "store_true", "help": "machine-readable output"}),)
# every command but check-bcg reads atoms; only report and sigma have
# certificate gaps to report
_ATOMS = _JSON + (("--atoms", {"metavar": "FILE", "help": "JSON registry of extra atoms"}),)
_STRICT = _ATOMS + (("--strict", {"action": "store_true", "help": "exit 3 on certificate gaps"}),)
_EXPR = (("expr", {}),)


def _suite(rows, **ranges):
    # a suite takes only the range flags its rows read, with their
    # defaults; the rows parse them with _range, so a bad range exits 1
    # with one error line
    return Command(None, {"rows": rows}, flags=_ATOMS + _ranges(**ranges))


def _ranges(**defaults):
    return tuple((f"--{dest}", {"metavar": "A..B", "default": d}) for dest, d in defaults.items())


COMMANDS = {
    "report": Command("full invariant report", {"run": cmd_report}, _EXPR, _STRICT),
    "suite": Command(
        "verification suites",
        {"run": cmd_suite},
        suites={
            "thm1": _suite(_suite_thm1, n="1..20"),
            "thm2": _suite(_suite_thm2, k="1..10", l="1..10"),
            "remark": _suite(_suite_remark, k="1..20"),
            "bcg": _suite(_suite_bcg, n="1..50"),
            "lens": _suite(_suite_lens, n="1..100"),
        },
    ),
    "surgery": Command(
        "surgery correction terms",
        {"run": cmd_surgery},
        _EXPR + (("p", {"type": int}), ("q", {"type": int})),
        _ATOMS,
    ),
    "sigma": Command(
        "signature step function",
        {"run": cmd_sigma},
        _EXPR,
        _STRICT
        + (("--at", {"action": "append", "metavar": "A/B", "help": "query sigma at theta = (A/B)*pi (repeatable)"}),),
    ),
    # check-bcg reads no atom, and main gives it the default database
    "check-bcg": Command(
        "cobordism arithmetic replay",
        {"run": cmd_check_bcg, "atoms": None},
        flags=_JSON + _ranges(n="1..50"),
    ),
    "independence": Command(
        "signature independence check",
        {"run": cmd_independence},
        (("exprs", {"nargs": "+"}),),
        _ATOMS + (("--bound", {"type": int, "default": 3}),),
    ),
}


@cache
def _parser():
    """The argparse tree of COMMANDS, built on the first argv that _read
    leaves to it and shared by every later one: parse_args does not change
    it, and `--at` appends to a list it makes for each call, so no call
    sees another's arguments."""
    import argparse

    def add(sub, name, cmd):
        p = sub.add_parser(name, **({"help": cmd.help} if cmd.help else {}))
        p.set_defaults(**cmd.defaults)
        for arg, kwargs in cmd.positionals + cmd.flags:
            p.add_argument(arg, **kwargs)
        if cmd.suites:
            suites = p.add_subparsers(dest="name", required=True)
            for suite, entry in cmd.suites.items():
                add(suites, suite, entry)

    ap = argparse.ArgumentParser(
        prog="defslice",
        description="Knot concordance invariants and sliceness obstructions "
        "in definite 4-manifolds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        add(sub, name, cmd)
    return ap


def _read(argv):
    """The attributes that _parser().parse_args(argv) sets, for an argv of
    the plain shape: a command name, for `suite` a suite name, then flags
    of that command or suite, each written out in full and a value flag
    followed by a value that does not start with "-", around one unbroken
    run of its positionals, as many as it declares.  None for any other
    argv (-h, --flag=value, "--", an abbreviation, a negative number, a
    flag between positionals, a wrong count), which argparse then reads
    or refuses.  A type conversion that fails raises ValueError."""
    cmd = COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    args = {"command": argv[0], **cmd.defaults}
    tokens = iter(argv[1:])
    if cmd.suites:
        name = next(tokens, None)
        cmd = cmd.suites.get(name)
        if cmd is None:
            return None
        args.update(cmd.defaults, name=name)
    flags = dict(cmd.flags)
    for flag, kwargs in cmd.flags:
        args[flag[2:]] = False if kwargs.get("action") == "store_true" else kwargs.get("default")
    words, after = [], False
    for token in tokens:
        if not token.startswith("-"):
            if after:
                return None
            words.append(token)
            continue
        kwargs = flags.get(token)
        if kwargs is None:
            return None
        after = bool(words)
        dest, action = token[2:], kwargs.get("action")
        if action == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if action == "append":
            args[dest] = [*(args[dest] or ()), value]
        else:
            args[dest] = _typed(kwargs, value)
    specs = cmd.positionals
    if specs and specs[-1][1].get("nargs") == "+" and len(words) >= len(specs):
        # the last positional takes one or more words, those the others leave
        words[len(specs) - 1 :] = [words[len(specs) - 1 :]]
    if len(words) != len(specs):
        return None
    for (dest, kwargs), word in zip(specs, words):
        args[dest] = _typed(kwargs, word)
    return args


def _typed(kwargs, word):
    return kwargs["type"](word) if "type" in kwargs else word


def _args(argv):
    """main's reading of argv: the namespace _read gives, or when it
    leaves argv to argparse, _parser().parse_args(argv)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read(argv)
    except ValueError:  # an int that does not convert, which argparse reports
        args = None
    return _parser().parse_args(argv) if args is None else SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] when None); return its exit code.

    A well-formed argv is read from COMMANDS without argparse.  Any other,
    -h and every mistake, goes to the argparse tree that _parser() builds
    from the same table, which prints its own help, usage and error lines
    and raises SystemExit.  May be called many times in one process: that
    tree, once a call needs it, and each built-in atom certificate are
    built once per process, and the output of a call does not depend on
    the calls before it.
    """
    args = _args(argv)

    try:
        db = load_registry(args.atoms) if args.atoms else default_db()
        return args.run(args, db)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateGapError as exc:
        print(f"certificate gap: {exc}", file=sys.stderr)
        return EXIT_GAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def entry() -> int:
    """Console entry: main on sys.argv, with stdout flushed before return.

    A closed stdout (its reader has exited) ends the run with exit code 1
    and no traceback: stdout is pointed at os.devnull, so the flush at
    interpreter exit has nothing left to fail on.
    """
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(entry())
