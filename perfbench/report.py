"""Print every end-to-end and per-layer metric, by name and unit, with the
correctness result.

Usage:
    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload (all four by default) this makes one traced run, as
``perfbench/run.py --trace 1`` does: untraced and traced passes
alternate, the untraced ones give the end-to-end table and the traced
ones the per-layer table.  --seconds defaults to BENCHMARK.json's
run_seconds.  Each record is saved in perfbench/out/.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS


def module_self_times(layers):
    out = {}
    for metric, layer, field, _ in run.PER_LAYER + run.LAYER_EXTRA:
        if field == "self_s":
            module = layer.split(".")[0]
            out[module] = out.get(module, 0.0) + layers[metric]["value"]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def digests_agree(rec):
    """True when every pass, traced or not, printed the same bytes per op."""
    per_op = [set() for _ in rec["argv"]]
    for p in rec["passes_detail"]:
        for i, row in enumerate(p["ops"]):
            if "sha256" in row:
                per_op[i].add(row["sha256"])
    return all(len(s) == 1 for s in per_op)


def show(rec):
    print(f"== {rec['workload']} (seed {rec['seed']}, {rec['ops_per_pass']} ops per pass, {rec['loop']})")
    fr = rec["failed_ratio"]
    print(
        f"  correct={rec['failed'] == 0} attempted={rec['attempted']} "
        f"failed={rec['failed']} failed_ratio={fr['value']:.4f} (base {fr['base']})"
    )
    for f in rec["failures"][:5]:
        print(f"    FAILED {f}")
    print(f"  digests equal across untraced and traced passes: {digests_agree(rec)}")
    print(f"  end-to-end ({rec['passes']} untraced passes):")
    e2e = rec["end_to_end"]
    notes = {
        "setup_s": f"median of {len(rec['setup_samples_s'])} interpreter starts",
        "wall_s": f"median of {rec['passes']} passes",
        "op_p50_ms": f"over per-op medians; {rec.get('latency_samples', 0)} samples",
        "op_p95_ms": f"over per-op medians; {rec.get('samples_beyond_p95', 0)} "
        "ops beyond p95",
        "peak_rss_mb": f"median of {rec['passes']} passes",
    }
    for name, unit in run.END_TO_END.items():
        if name in e2e:
            print(f"    {name:40} {e2e[name]:14.6f} {unit:6} {notes[name]}")
    print(f"    {'failed_ratio':40} {fr['value']:14.6f} {'ratio':6} base {fr['base']} ops")
    print(f"  per-layer (traced run, {rec['traced_passes']} traced passes):")
    for name, m in rec["layers"].items():
        extra = f"base {m['base']} calls" if "base" in m else ""
        print(f"    {name:40} {m['value']:14.6f} {m['unit']:6} {extra}")
    if rec.get("absent"):
        print(f"    absent targets: {', '.join(rec['absent'])}")
    print(f"  wrappers removed after tracing: {rec.get('wrappers_removed')}")
    selfs = {n: m["value"] for n, m in rec["layers"].items() if n.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    print(f"  largest layer self time: {top} ({selfs[top]:.4f} s)")
    mods = module_self_times(rec["layers"])
    print("  module self time: " + ", ".join(f"{m} {v:.4f} s" for m, v in mods.items()))
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    args = ap.parse_args(argv)
    if not (run.ROOT / "src" / "defslice" / "cli.py").is_file():
        print(f"no defslice sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for w in args.workload or WORKLOADS:
        rec = run.measure(w, args.seed, args.seconds, True)
        run.save(rec)
        show(rec)
        ok = ok and rec["failed"] == 0
    print(f"correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
