"""Seeded, deterministic op generators for the four benchmark workloads.

An op is a dict with the argv passed to ``defslice.cli.main``, the exit
code it must return, and the closed-form facts the benchmark can check
without the engine.  The program never sees the seed, only these argv
lists.  Each generator fixes how many ops of each kind a pass holds and
draws only the details (which knots, which signs, which order) from the
seed, so that the cost of a pass stays comparable from seed to seed.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("suites", "cli-mix", "wide-sums", "cables")

SUITE_ARGVS = (
    ["suite", "thm1", "--json"],
    ["suite", "thm2", "--json"],
    ["suite", "remark", "--json"],
    ["suite", "bcg", "--json"],
    ["suite", "lens", "--json"],
    ["check-bcg", "--json"],
)

# Torus knots T(p,q), p < q coprime, of genus (p-1)(q-1)/2 at most 8.
TORUS_POOL = tuple(
    (p, q)
    for p in range(2, 6)
    for q in range(p + 1, 18)
    if gcd(p, q) == 1 and (p - 1) * (q - 1) // 2 <= 8
)
CABLE_COMPANIONS = ("T(2,3)", "T(3,4)", "T(2,5)", "Wh(T(2,3))")
CABLE_P = (2, 3, 4)
CABLE_Q = (1, 3, 5, 7)
MALFORMED = (
    "T(2,4)",
    "cable(2,4,T(2,3))",
    "T(2,3) #",
    "Wh(T(2,5))",
    "foo",
    "T(1,3)",
    "3*",
    "cable(0,1,T(2,3))",
    "T(2,3))",
    "mirror(T(3,4)",
    "T(3,5) ## T(2,3)",
    "0*T(2,3)",
)


def torus(p: int, q: int) -> str:
    return f"T({p},{q})"


def genus(p: int, q: int) -> int:
    return (p - 1) * (q - 1) // 2


def _op(argv, expect=0, **facts):
    return {"argv": list(argv), "expect": expect, "facts": facts}


def _report(expr, **facts):
    return _op(["report", expr, "--json"], **facts)


def _torus_facts(signed):
    """Closed-form tau and genus bound of a sum of torus knots.

    ``signed`` lists (p, q, sign) per summand after normalization.
    """
    return {
        "tau": sum(s * genus(p, q) for p, q, s in signed),
        "genus_bound": sum(genus(p, q) for p, q, _ in signed),
    }


# ---------------------------------------------------------------- suites

def suites_ops(seed: int):
    """The paper reproduction at default ranges; the seed changes nothing."""
    del seed
    return [_op(argv, suite=argv[1] if argv[0] == "suite" else argv[0]) for argv in SUITE_ARGVS]


# ---------------------------------------------------------------- cables

# Per-op cost of an iterated cable spans three orders of magnitude and is
# set by the (p, q) chain and the companion, mirrored or not: they fix the
# Alexander polynomial and the roots of unity the signature rule must
# test.  Ops share the cyclotomic cache, so each root of unity is paid for
# by the first op that needs it; when the seed drew the companions'
# mirrors, the same expression took 8 ms in one seed's pass and 110 ms in
# another's.  So every op's chain, companion and companion mirror are one
# fixed draw in a fixed order, and the seed draws only whether each single
# cable as a whole is mirrored, which changes neither its Alexander
# polynomial nor where its signature jumps.  In a sum the V_0 search also
# mirrors each summand, and a whole mirror there moved an op between 17
# and 82 ms, so the summed ops are fixed entirely, mirrors included.
CABLE_CHAINS = tuple(
    (p, q) for p in CABLE_P for q in CABLE_Q if gcd(p, q) == 1
)


def _skeletons(depth: int, count: int, tag: str):
    """``count`` fixed (companion, chain) pairs of nesting ``depth``."""
    rng = random.Random(f"skeleton:{tag}:{depth}")
    return tuple(
        (rng.choice(CABLE_COMPANIONS), tuple(rng.choice(CABLE_CHAINS) for _ in range(depth)))
        for _ in range(count)
    )


def _nest(companion, chain):
    expr = companion
    for p, q in chain:
        expr = f"cable({p},{q},{expr})"
    return expr


def _fixed_cables(skeletons, tag):
    """The cable texts of ``skeletons``, about 3 in 10 companions mirrored."""
    rng = random.Random(f"mirrors:{tag}")
    return tuple(_nest(f"{c}*" if rng.random() < 0.3 else c, chain) for c, chain in skeletons)


# 200 ops, so that op_p95_ms has 10 ops beyond it.  Above 70 ms the ops
# are sparse (about one in eleven depth-2 and one in four depth-3 ops), so
# the counts keep that tail well short of 10 ops and p95 lands among the
# denser 30-70 ms ops; the summed ops are all cheap.
CABLE_SINGLE = _fixed_cables(
    tuple((c, (chain,)) for c in CABLE_COMPANIONS for chain in CABLE_CHAINS)
    + _skeletons(2, 80, "cables")
    + _skeletons(3, 24, "cables"),
    "cables",
)


def _mirror_whole(rng, text):
    return f"{text}*" if rng.random() < 0.5 else text


def _fixed_sums(count):
    rng = random.Random("mirrors:cables-sum-whole")
    pairs = zip(
        _fixed_cables(_skeletons(2, count, "cables-sum"), "cables-sum"),
        _fixed_cables(_skeletons(1, count, "cables-partner"), "cables-partner"),
    )
    return tuple(f"{_mirror_whole(rng, a)} # {_mirror_whole(rng, b)}" for a, b in pairs)


CABLE_SUMMED = _fixed_sums(52)


def cables_ops(seed: int):
    rng = random.Random(f"cables:{seed}")
    ops = [_report(_mirror_whole(rng, text)) for text in CABLE_SINGLE]
    return ops + [_report(text) for text in CABLE_SUMMED]


# ---------------------------------------------------------------- wide-sums

# ops per summand count r; they cycle through the three sum kinds
# (24 at r = 6, so that the median op lies in the middle of one tier,
# whose ops' costs differ by half with the knots the seed draws)
WIDE_COUNTS = {4: 3, 5: 3, 6: 24, 7: 3, 8: 2, 9: 1, 10: 1}
WIDE_KINDS = ("distinct", "mixed", "cable")
# small cables and their genus p * g(companion) + (p-1)(q-1)/2
SMALL_CABLES = (
    ("cable(2,1,T(2,3))", 2),
    ("cable(2,3,T(2,3))", 3),
    ("cable(3,1,T(2,3))", 3),
    ("cable(2,5,T(2,3))", 4),
    ("cable(2,1,T(2,5))", 4),
    ("cable(2,3,T(2,5))", 5),
)
TORUS_GENUS_MEAN = sum(genus(p, q) for p, q in TORUS_POOL) / len(TORUS_POOL)


def _wide_sum(rng, r, kind):
    """A sum of r distinct summands of fixed total genus.

    The V_0 search visits 3^r partitions and each visit folds V-sequences
    whose length is a partial genus sum, so r and the total genus set the
    cost; the seed picks which knots reach that total and which are
    mirrored.  "distinct" sums are all positive torus knots, "mixed" ones
    mirror r//2 of them, "cable" ones also swap two knots for small cables.
    """
    target = round(r * TORUS_GENUS_MEAN)
    n_cables = 2 if kind == "cable" else 0
    while True:
        knots = rng.sample(TORUS_POOL, r - n_cables)
        cables = rng.sample(SMALL_CABLES, n_cables)
        total = sum(genus(p, q) for p, q in knots) + sum(g for _, g in cables)
        if total == target:
            break
    mirrored = set(rng.sample(range(r), 0 if kind == "distinct" else r // 2))
    pieces, signed = [], []
    for i, text in enumerate([torus(p, q) for p, q in knots] + [c for c, _ in cables]):
        pieces.append(f"{text}*" if i in mirrored else text)
    for i, (p, q) in enumerate(knots):
        signed.append((p, q, -1 if i in mirrored else 1))
    rng.shuffle(pieces)
    facts = _torus_facts(signed) if kind != "cable" else {}
    return _report(" # ".join(pieces), summands=r, **facts)


def wide_sums_ops(seed: int):
    rng = random.Random(f"wide-sums:{seed}")
    ops = []
    for r, count in WIDE_COUNTS.items():
        for i in range(count):
            ops.append(_wide_sum(rng, r, WIDE_KINDS[(i + r) % 3]))
    # widest first: the first sight of each knot fills the torus caches,
    # and that cost then lands on ops that take seconds anyway instead of
    # making the small sums, where the median op lies, slower at random
    ops.reverse()
    return ops


# ---------------------------------------------------------------- cli-mix

# The typical user: mostly `report EXPR --json` on random expressions of
# at most 6 summands after normalization (atoms, mirrors, multiplicities,
# cables nested at most twice), plus a few surgery, sigma --at and small
# independence runs and a fixed share of malformed inputs.
#
# A report's cost follows its summand count, its summands' knots and its
# cables, and a few heavy reports set op_p95_ms, so drawing reports per
# seed made a pass's cost vary by a fifth from seed to seed.  The reports'
# shapes (summand kinds, multiplicities, torus knots, cable companions,
# companion mirrors and chains) are therefore one fixed draw of that
# traffic, an equal number for each summand count 1..6 plus one report
# per depth-2 cable chain.  The seed picks which summands are mirrored,
# the order of summands in each sum and the inputs of the other commands.
# The order of the ops is one fixed shuffle: ops share the module caches,
# so the first op to need a knot pays for it (a report on T(2,7) took
# 11.8 ms cold and 1.8 ms warm), and a seeded order moved op_p50_ms by up
# to a tenth from seed to seed.  When the seed also picked the torus knot
# of each genus, op_p50_ms spread 0.12 over seeds 1..10.
CLI_MIX_MAX_SUMMANDS = 6
CLI_MIX_REPORTS_PER_COUNT = 26
CLI_MIX_OTHER = {"surgery": 12, "sigma": 8, "independence": 6, "malformed": 6}
# a drawn summand is a torus atom, Wh(T(2,3)) or a cable of depth 1
SUMMAND_WEIGHTS = (("torus", 0.75), ("whitehead", 0.1), ("cable", 0.15))
MULTIPLICITIES = (1, 1, 1, 2, 3)


def _companion(rng, name):
    return f"{name}*" if rng.random() < 0.3 else name


def _draw_summand(rng):
    kind = rng.choices(*zip(*SUMMAND_WEIGHTS))[0]
    if kind == "torus":
        return ("torus", *rng.choice(TORUS_POOL))
    if kind == "whitehead":
        return ("whitehead",)
    return ("cable", _companion(rng, rng.choice(CABLE_COMPANIONS)), (rng.choice(CABLE_CHAINS),))


def _draw_shape(rng, n):
    """n summands after normalization, as (multiplicity, summand) pairs."""
    shape, left = [], n
    while left:
        mult = min(left, rng.choice(MULTIPLICITIES))
        shape.append((mult, _draw_summand(rng)))
        left -= mult
    return tuple(shape)


def _cli_mix_shapes():
    rng = random.Random("shapes:cli-mix")
    shapes = [
        _draw_shape(rng, n)
        for n in range(1, CLI_MIX_MAX_SUMMANDS + 1)
        for _ in range(CLI_MIX_REPORTS_PER_COUNT)
    ]
    for i, (companion, chain) in enumerate(_skeletons(2, 12, "cli-mix")):
        cable = ("cable", _companion(rng, companion), chain)
        shapes.append(((1, cable),) + _draw_shape(rng, i % 3))
    return tuple(shapes)


CLI_MIX_SHAPES = _cli_mix_shapes()


def _signed_torus(rng, p, q, sign):
    text = torus(p, q)
    if sign < 0:
        text = rng.choice((f"{text}*", f"mirror({text})"))
    return text


def _render(rng, shape):
    """The expression text of a shape, with seeded mirrors and order.

    Also returns, when every summand is a torus knot, the signed
    (p, q, sign) list for the closed-form facts (else None).
    """
    pieces, signed = [], []
    for mult, summand in shape:
        if summand[0] == "torus":
            p, q = summand[1:]
            sign = rng.choice((1, -1))
            text = _signed_torus(rng, p, q, sign)
            if signed is not None:
                signed.extend([(p, q, sign)] * mult)
        else:
            if summand[0] == "whitehead":
                text = "Wh(T(2,3))*" if rng.random() < 0.5 else "Wh(T(2,3))"
            else:
                text = _mirror_whole(rng, _nest(*summand[1:]))
            signed = None
        pieces.append(f"{mult}*{text}" if mult > 1 else text)
    rng.shuffle(pieces)
    return " # ".join(pieces), signed


def _random_sum(rng, n):
    return _render(rng, _draw_shape(rng, n))[0]


def _cli_mix_report(rng, shape):
    expr, signed = _render(rng, shape)
    return _report(expr, **(_torus_facts(signed) if signed else {}))


def _cli_mix_op(rng, kind, i):
    if kind == "surgery":
        expr = _random_sum(rng, 1 + i % 3)
        p = 1 + i % 7
        q = rng.choice([q for q in (1, 2, 3) if gcd(p, q) == 1])
        return _op(["surgery", expr, str(p), str(q), "--json"], rows=p)
    if kind == "sigma":
        expr = _random_sum(rng, 1 + i % 4)
        n = 1 + i % 3
        argv = ["sigma", expr]
        for _ in range(n):
            den = rng.randint(2, 24)
            argv += ["--at", f"{rng.randint(1, den)}/{den}"]
        return _op(argv + ["--json"], queries=n)
    if kind == "independence":
        # of distinct T(2, 2j+1), only the one of largest j jumps at
        # x = 1/(4j+2), so its coefficient in a vanishing combination is
        # 0; by induction no nonzero combination vanishes
        n, bound = 2 + i % 2, 1 + i // 2 % 2
        exprs = []
        for j in rng.sample(range(1, 8), n):
            text = torus(2, 2 * j + 1)
            exprs.append(f"{text}*" if rng.random() < 0.3 else text)
        return _op(
            ["independence", *exprs, "--bound", str(bound), "--json"],
            combinations=(2 * bound + 1) ** n - 1,
        )
    cmd = ("report", "sigma", "surgery")[i % 3]
    argv = [cmd, MALFORMED[rng.randrange(len(MALFORMED))]]
    if cmd == "surgery":
        argv += ["3", "1"]
    return _op(argv + ["--json"], expect=2)


def cli_mix_ops(seed: int):
    rng = random.Random(f"cli-mix:{seed}")
    ops = [_cli_mix_report(rng, shape) for shape in CLI_MIX_SHAPES]
    ops += [
        _cli_mix_op(rng, kind, i)
        for kind, count in CLI_MIX_OTHER.items()
        for i in range(count)
    ]
    random.Random("order:cli-mix").shuffle(ops)
    return ops


GENERATORS = {
    "suites": suites_ops,
    "cli-mix": cli_mix_ops,
    "wide-sums": wide_sums_ops,
    "cables": cables_ops,
}


def make_ops(workload: str, seed: int):
    return GENERATORS[workload](seed)
