"""Record a baseline: every workload over ten seeds, in two sets.

Usage:
    python3 perfbench/baseline.py [--workload NAME ...]

Run from a git checkout, whose HEAD is recorded as the commit.  Each of
two sets runs perfbench/run.py once per workload and seed 1..10 with
tracing off, one run after another, for BENCHMARK.json's run_seconds.
For each end-to-end metric a set records the values, their median and
quartiles, and the spread: the distance between the quartiles as a share
of the median.  "agreement" sets each metric's
spreads and the change of each later set's median from the first set's
next to the metric's bound in BENCHMARK.json.  One traced run per
workload, at the default seed, gives the per-layer values and each
module's share of the traced self time; for cli-mix it also gives the
latency percentiles of the report ops alone.  The result, with the Python
version and the commit, goes to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
from report import module_self_times
from workloads import WORKLOADS, make_ops

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SETS = 2
OUT = run.HERE / "baseline.json"


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def traced_profile(workload):
    """Module shares of traced self time, and for cli-mix the report ops'
    latency percentiles, from the saved record of a traced run."""
    rec = json.loads((run.OUT / f"{workload}-seed{run.DEFAULT_SEED}-trace1.json").read_text())
    mods = module_self_times(rec["layers"])
    total = sum(mods.values())
    out = {"module_self_share": {m: v / total for m, v in mods.items()}}
    if workload == "cli-mix":
        ops = make_ops(workload, run.DEFAULT_SEED)
        reports = [i for i, op in enumerate(ops) if op["argv"][0] == "report" and op["expect"] == 0]
        lat = run.op_latencies(rec["passes_detail"], "ms")
        ms = [lat[i] for i in reports]
        out["report_ops"] = {
            "count": len(reports),
            "op_p50_ms": run.percentile(ms, 50),
            "op_p95_ms": run.percentile(ms, 95),
        }
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def measure_set(workloads, seeds, seconds):
    out = {}
    for w in workloads:
        values, correct = {}, True
        for seed in seeds:
            line = run_once(w, seed, seconds, 0)
            correct = correct and line["correct"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {n: round(m["value"], 4) for n, m in line["metrics"].items()}, flush=True)
        out[w] = {
            "correct": correct,
            "end_to_end": {n: dict(summarize(v), unit=run.END_TO_END[n]) for n, v in values.items()},
        }
        for name, s in out[w]["end_to_end"].items():
            print(f"  {w:10} {name:12} median {s['median']:12.4f}  spread {s['spread']:.3f}", flush=True)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    seeds = list(SEEDS)
    workloads = args.workload or list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    sets = [measure_set(workloads, seeds, run.RUN_SECONDS) for _ in range(SETS)]
    result = {
        "commit": commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, {os.cpu_count()} CPUs",
        "run_seconds": run.RUN_SECONDS,
        "seeds": seeds,
        "sets": sets,
        "agreement": {},
        "per_layer": {},
        "profile": {},
    }
    # every later set against the first: spread and median drift per metric
    for w in workloads:
        first = sets[0][w]["end_to_end"]
        result["agreement"][w] = {
            name: {
                "bound": bounds[name],
                "spreads": [s[w]["end_to_end"][name]["spread"] for s in sets],
                "median_change": [s[w]["end_to_end"][name]["median"] / first[name]["median"] - 1 for s in sets[1:]],
            }
            for name in first
        }
        result["per_layer"][w] = run_once(w, run.DEFAULT_SEED, run.RUN_SECONDS, 1)
        result["profile"][w] = traced_profile(w)
    with open(OUT, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
