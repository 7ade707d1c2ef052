"""defslice benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds.  The run generates the workload's argv lists from the seed,
then starts passes over them until S seconds have passed; the last pass
ends after that.  Every pass is a fresh interpreter (perfbench/child.py)
that imports defslice from ./src, so module-level caches start cold as
they do for a CLI user and are shared by the ops of that pass, as in a
library session.
One client sends one op at a time (a closed loop).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics.  Every op of every pass is checked (see checks.py).
The argv lists, per-op results, digests and the full layer table go to
perfbench/out/; the spans of the last traced pass go to
perfbench/out/<workload>.spans.

    python3 perfbench/run.py --write-goldens

records the stdout digests of every workload at the default seed.
"""

from __future__ import annotations

import argparse
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import problems  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

DEFAULT_SEED = 1
OP_LIMIT_S = 30.0  # an op slower than this fails
SETUP_PROBES = 12  # extra interpreters started only to time set-up
HARD_LIMIT_S = 160.0  # a run never outlives this, whatever --seconds says
GOLDENS = HERE / "goldens.json"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, layer, field, unit).  A time that reads exactly the same on
# every run measures nothing, so a self time that is zero by construction
# on some workload (the layer is never called there) is listed under
# LAYER_EXTRA instead.  Counts are exact, repeat from run to run by design
# and may be 0.
PER_LAYER = [
    ("knotexpr.parse.calls", "knotexpr.parse", "calls", "count"),
    ("knotexpr.normalize.calls", "knotexpr.normalize", "calls", "count"),
    ("knotexpr.normalize.self_s", "knotexpr.normalize", "self_s", "s"),
    ("knotexpr.alexander.self_s", "knotexpr.alexander", "self_s", "s"),
    ("certificates.db_get.calls", "certificates.db_get", "calls", "count"),
    ("certificates.db_get.self_s", "certificates.db_get", "self_s", "s"),
    ("certificates.nu_equiv_reduce.calls", "certificates.nu_equiv_reduce", "calls", "count"),
    ("laurent.div_exact.calls", "laurent.div_exact", "calls", "count"),
    ("laurent.div_exact.self_s", "laurent.div_exact", "self_s", "s"),
    ("laurent.mul.self_s", "laurent.mul", "self_s", "s"),
    ("laurent.vanishes_at_unit_root.self_s", "laurent.vanishes_at_unit_root", "self_s", "s"),
    ("hf_invariants.v0_lower.calls", "hf_invariants.v0_lower", "calls", "count"),
    ("hf_invariants.v0_lower.self_s", "hf_invariants.v0_lower", "self_s", "s"),
    ("hf_invariants.sum_fold.self_s", "hf_invariants.sum_fold", "self_s", "s"),
    ("hf_invariants.cable_step.self_s", "hf_invariants.cable_step", "self_s", "s"),
    ("hf_invariants.close.calls", "hf_invariants.close", "calls", "count"),
    ("hf_invariants.close.self_s", "hf_invariants.close", "self_s", "s"),
    ("hf_invariants.vseq.calls", "hf_invariants.vseq", "calls", "count"),
    ("hf_invariants.vseq.distinct", "hf_invariants.vseq", "distinct", "count"),
    ("hf_invariants.v_seq.self_s", "hf_invariants.v_seq", "self_s", "s"),
    ("hf_invariants.tau.self_s", "hf_invariants.tau", "self_s", "s"),
    ("hf_invariants.nu_plus.self_s", "hf_invariants.nu_plus", "self_s", "s"),
    ("hf_invariants.surgery_d.calls", "hf_invariants.surgery_d", "calls", "count"),
    ("hf_invariants.lens_d.calls", "hf_invariants.lens_d", "calls", "count"),
    ("signatures.sigma.self_s", "signatures.sigma", "self_s", "s"),
    ("signatures.cable_sigma.self_s", "signatures.cable_sigma", "self_s", "s"),
    ("signatures.combination_check.calls", "signatures.combination_check", "calls", "count"),
    ("signatures.combinations", "signatures.combination_check", "combinations", "count"),
    ("obstructions.verdict.self_s", "obstructions.verdict", "self_s", "s"),
    ("obstructions.kinkiness.self_s", "obstructions.kinkiness", "self_s", "s"),
    ("qform_verify.bcg_check.calls", "qform_verify.bcg_check", "calls", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.json_out.self_s", "cli.json_out", "self_s", "s"),
]
# self times that are zero on the workloads named: reported by report.py
# and in out/, but not in the per-layer result line
LAYER_EXTRA = [
    ("knotexpr.parse.self_s", "knotexpr.parse", "self_s", "s"),  # suites
    ("hf_invariants.surgery_d.self_s", "hf_invariants.surgery_d", "self_s", "s"),  # all but cli-mix
    ("signatures.combination_check.self_s", "signatures.combination_check", "self_s", "s"),  # wide-sums, cables
    ("qform_verify.bcg_check.self_s", "qform_verify.bcg_check", "self_s", "s"),  # all but suites
]
TRACE_OVERHEAD = ("trace.overhead_s", "s")


class PassFailed(Exception):
    """The child interpreter crashed, hung or answered garbage."""


def run_pass(ops, trace, deadline, spans=None):
    """One pass in a fresh interpreter; returns (setup_s, reply).

    setup_s is the time from spawning the child until it is ready, less
    the speed probes inside that span, at the probe's nominal speed (see
    child.py); the reply's "raw_setup_s" is the time as measured.
    """
    job = {"ops": ops, "trace": trace, "limit_s": OP_LIMIT_S, "spans": spans}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-E", "-S", str(HERE / "child.py"), str(ROOT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line != "ready\n":
            raise PassFailed(f"child did not start: {line!r} {proc.stderr.read()[-2000:]}")
        out, err = proc.communicate(
            json.dumps(job) + "\n", timeout=max(0.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise PassFailed("pass ran past the run's hard limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"child exited {proc.returncode}: {err[-2000:]}")
    reply = json.loads(out.splitlines()[-1])
    reply["raw_setup_s"] = setup
    return (setup - reply["setup_probe_s"]) / reply["setup_slowdown"], reply


def load_goldens(workload):
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text()).get(workload, {})


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_latencies(checked, field):
    """Each op's median ``field`` over the untraced passes, in op order.

    op_p50_ms and op_p95_ms are percentiles over these: an op's latency
    is its typical time in the run, so the percentiles sit at the same
    place in the pass's mix of ops whatever the pass count.
    """
    passes = [c["ops"] for c in checked if not c["traced"] and field in c["ops"][0]]
    return [statistics.median(p[i][field] for p in passes) for i in range(len(passes[0]))]


def measure(workload, seed, seconds, trace):
    """Run the passes; return the run record written to out/."""
    ops = make_ops(workload, seed)
    goldens = load_goldens(workload)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups, plain, traced, failures = [], [], [], []
    first_digest = {}
    checked = []  # per pass: traced or not, and each op's check result
    try:
        for _ in range(SETUP_PROBES):
            setup, reply = run_pass([], False, deadline)
            setups.append((setup, reply["raw_setup_s"]))
    except PassFailed as exc:
        failures.append({"pass": "setup probe", "why": [str(exc)]})
        checked.append({"traced": False, "ops": [{"ok": False}] * len(ops)})
        return record(workload, seed, trace, ops, setups, plain, traced, checked, failures, start)

    def account(reply, is_traced):
        rows = []
        for i, (op, res) in enumerate(zip(ops, reply["results"])):
            why = problems(op, res, goldens)
            first = first_digest.setdefault(i, res["sha256"])
            if res["sha256"] != first:
                why.append("stdout digest differs from this op's first pass")
            if why:
                failures.append({"op": i, "traced": is_traced, "argv": op["argv"], "why": why})
            rows.append({
                "ms": res["s"] * 1e3,
                "raw_ms": res["raw_s"] * 1e3,
                "slowdown": res["slowdown"],
                "code": res["code"],
                "sha256": res["sha256"],
                "ok": not why,
            })
        checked.append({"traced": is_traced, "ops": rows})

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}.spans"
    while True:
        for is_traced in (False, True) if trace else (False,):
            try:
                setup, reply = run_pass(
                    ops, is_traced, deadline, str(spans_path) if is_traced else None
                )
            except PassFailed as exc:
                failures.append({"pass": len(checked), "traced": is_traced, "why": [str(exc)]})
                checked.append({"traced": is_traced, "ops": [{"ok": False}] * len(ops)})
                return record(workload, seed, trace, ops, setups, plain, traced, checked, failures, start)
            setups.append((setup, reply["raw_setup_s"]))
            account(reply, is_traced)
            del reply["results"]  # checked and digested; stdout is not kept
            (traced if is_traced else plain).append(reply)
        # a pass starts whenever time is left, so the last one ends after
        # --seconds: a suites pass takes about half of run_seconds, and
        # stopping before it would leave a single sample in most runs
        if time.monotonic() - start >= seconds:
            break
    return record(workload, seed, trace, ops, setups, plain, traced, checked, failures, start)


def record(workload, seed, trace, ops, setups, plain, traced, checked, failures, start):
    attempted = sum(len(c["ops"]) for c in checked)
    failed = sum(1 for c in checked for r in c["ops"] if not r["ok"])
    lat = op_latencies(checked, "ms")
    walls = [p["wall_s"] for p in plain]
    rec = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "loop": "closed, 1 client",
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "traced_passes": len(traced),
        "run_s": time.monotonic() - start,
        "argv": [op["argv"] for op in ops],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": {"value": failed / attempted if attempted else 1.0, "base": attempted},
        "failures": failures[:50],
        "passes_detail": checked,
        "setup_samples_s": [s for s, _ in setups],
        "raw_setup_samples_s": [r for _, r in setups],
        "end_to_end": {},
        "layers": {},
    }
    if walls:
        rec["end_to_end"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(lat, 50),
            "op_p95_ms": percentile(lat, 95),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        # the same figures as measured, before scaling to the probe's
        # nominal speed, and the median factor by which the machine ran
        # slower than that
        raw = op_latencies(checked, "raw_ms")
        rec["raw_end_to_end"] = {
            "setup_s": statistics.median(r for _, r in setups),
            "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "op_p50_ms": percentile(raw, 50),
            "op_p95_ms": percentile(raw, 95),
            "slowdown": statistics.median(op_latencies(checked, "slowdown")),
        }
        rec["latency_samples"] = len(lat) * len(plain)
        rec["samples_beyond_p95"] = sum(x > rec["end_to_end"]["op_p95_ms"] for x in lat)
    if traced:
        rec["layers"] = layer_metrics(traced, walls)
        rec["absent"] = sorted({a for t in traced for a in t["absent"]})
        rec["wrappers_removed"] = all(t["unpatched"] for t in traced)
        rec["spans_recorded"] = traced[-1]["spans"]
        if not rec["wrappers_removed"]:
            rec["failed"] += 1
            failures.append({"why": ["a tracing wrapper survived its pass"]})
    return rec


def layer_metrics(traced, walls):
    """Per-layer values: the median over traced passes of each metric.

    ``walls`` are the untraced pass walls; pass i of each list ran back
    to back, so trace.overhead_s is the median of the paired differences.
    It is negative when the machine's drift within a pair outweighs the
    wrappers' cost.
    """
    out = {}
    for metric, layer, field, unit in PER_LAYER + LAYER_EXTRA:
        vals = []
        for t in traced:
            if field == "distinct":
                vals.append(t["vseq_distinct"])
            elif field == "combinations":
                vals.append(t["combinations"])
            elif unit == "s":
                # at the probe's nominal speed, as the untraced figures are
                vals.append(t["layers"][layer][field] * t["wall_s"] / t["raw_wall_s"])
            else:
                vals.append(t["layers"][layer][field])
        out[metric] = {"value": statistics.median(vals), "unit": unit}
    calls = out["hf_invariants.vseq.calls"]["value"]
    distinct = out["hf_invariants.vseq.distinct"]["value"]
    out["hf_invariants.vseq.hit_ratio"] = {
        "value": 1 - distinct / calls if calls else 0.0,
        "unit": "ratio",
        "base": calls,
    }
    name, unit = TRACE_OVERHEAD
    out[name] = {
        "value": statistics.median(t["wall_s"] - w for t, w in zip(traced, walls)),
        "unit": unit,
    }
    return out


def result_line(rec):
    """The last stdout line: end-to-end metrics, or per-layer ones when traced."""
    if rec["trace"]:
        names = [m for m, _, _, _ in PER_LAYER] + [TRACE_OVERHEAD[0]]
        metrics = {n: rec["layers"][n] for n in names} if rec["layers"] else {}
    else:
        metrics = {
            n: {"value": rec["end_to_end"][n], "unit": u}
            for n, u in END_TO_END.items()
            if n in rec["end_to_end"]
        }
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }


def save(rec):
    path = OUT / f"{rec['workload']}-seed{rec['seed']}-trace{int(rec['trace'])}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n")


def write_goldens():
    """Record each op's stdout digest at the default seed, for ops that
    pass every other check."""
    data = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, DEFAULT_SEED)
        _, reply = run_pass(ops, False, time.monotonic() + 600)
        digests = {}
        for op, res in zip(ops, reply["results"]):
            why = problems(op, res, {})
            if why:
                raise SystemExit(f"{workload}: {op['argv']} fails: {why}")
            digests[json.dumps(op["argv"])] = res["sha256"]
        data[workload] = digests
    GOLDENS.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "defslice" / "cli.py").is_file():
        print(f"no defslice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # unwind on SIGTERM too, so that run_pass stops the child it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.write_goldens:
        write_goldens()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    save(rec)
    print(json.dumps(result_line(rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
