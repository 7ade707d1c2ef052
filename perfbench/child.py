"""One measured pass in a fresh interpreter.

Usage: python3 perfbench/child.py ROOT

Imports defslice from ROOT/src and builds the default certificate
database, then writes "ready" on stdout so the parent can time set-up.
It then reads one JSON line from stdin, ``{"ops": [...], "trace": bool,
"limit_s": float, "spans": path or null}``, runs every op through
``defslice.cli.main`` in the main thread, one after another, and writes
one JSON line with the per-op results, the pass wall time and the peak
RSS of this process.

Times are reported at a fixed CPU speed.  On a 2-vCPU x86-64 VM of a
shared host, the same pure-Python loop ran in 8.4 ms and in 14 ms in
states that lasted seconds, and the swing showed in CPU time as much as
in wall time, so a run's figures spread by a third from run to run.  So
a fixed pure-Python probe is timed before every op, after the last one
and, in untraced passes, every PROBE_EVERY_S of CPU time inside each op
(from a SIGPROF handler).  An op's time, minus the probes that ran inside
it, is divided by its slowdown: the median probe time around and inside
the op over PROBE_NOMINAL_S, to the power SLOWDOWN_EXPONENT.  The result
is the op's time on a machine where the probe takes PROBE_NOMINAL_S.  The
raw times are reported too.  It is the median, not the mean, because in
busy spells a few probes read several times the op's own slowdown, and
the mean then scaled ops far below their usual time.  The exponent is below 1 because defslice slows less than
the probe when the machine slows: fitting log op time against log probe
time over the swings gave 0.78 for the suites' ops, 0.80 for cli-mix,
0.87 for wide-sums and 0.81-0.88 for single reports timed in one-second
windows, and with an exponent of 1 a suites run in the fast state read a
fifth slower than one in the slow state.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback

PROBE_ROUNDS = 32  # one probe is about 0.2 ms
PROBE_NOMINAL_S = 0.000200  # about the probe's time on that VM in its fast state
PROBES_BETWEEN_OPS = 3
PROBE_EVERY_S = 0.005  # CPU time between probes inside an untraced op
SLOWDOWN_EXPONENT = 0.82
_PROBE_XS = list(range(64))


def _probe_step(a, b):
    return a - b if a > b else b - a


def probe():
    """Time a fixed mix of calls, comparisons and small-int arithmetic.

    It allocates no object the garbage collector tracks, so it does not
    move the collections the ops see.
    """
    xs = _PROBE_XS
    acc = 0
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        for x in xs:
            acc += _probe_step(x, acc & 63) % 7
    return time.perf_counter() - t0


def _median(xs):
    s = sorted(xs)
    return (s[len(s) // 2] + s[(len(s) - 1) // 2]) / 2


def slowdown(probes):
    """The factor by which ops ran slower than at the nominal speed."""
    return (_median(probes) / PROBE_NOMINAL_S) ** SLOWDOWN_EXPONENT


class Speedometer:
    """Probe times taken around and inside ops, in order."""

    def __init__(self):
        self.samples = []

    def take(self, n=1):
        for _ in range(n):
            self.samples.append(probe())

    def on_sigprof(self, signum, frame):
        self.samples.append(probe())


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(main, argv, limit_s, sample):
    """Run one op; with ``sample`` the speed probe also runs inside it."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    if sample:
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects malformed argv with exit 2
        code = exc.code
    except OpTimeout:
        code, error = None, f"exceeded the {limit_s} s per-op limit"
    except Exception:  # an op that raises is a failed op, not a crashed pass
        code, error = None, traceback.format_exc(limit=-3)
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = out.getvalue()
    return {
        "raw_s": elapsed,
        "code": code,
        "error": error,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text,
    }


def _unpatched():
    """True when no defslice attribute still holds a tracing wrapper."""
    for name, mod in list(sys.modules.items()):
        if name != "defslice" and not name.startswith("defslice."):
            continue
        for value in list(vars(mod).values()):
            members = vars(value).values() if isinstance(value, type) else (value,)
            if any(getattr(m, "__module__", None) == "spans" for m in members):
                return False
    return True


def main():
    speed = Speedometer()
    speed.take(4)
    root = sys.argv[1]
    sys.path.insert(0, f"{root}/src")
    import defslice.cli
    from defslice.certificates import default_db

    default_db()
    print("ready", flush=True)
    speed.take(4)
    # set-up is scaled by the probes just before and after it; the parent
    # subtracts the four probe times that fall inside it
    setup_probes = speed.samples
    speed.samples = []

    job = json.loads(sys.stdin.readline())
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGPROF, speed.on_sigprof)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, f"{root}/perfbench")
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results, marks = [], []
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op_id = i
        speed.take(PROBES_BETWEEN_OPS)
        marks.append(len(speed.samples))
        # looked up per op so that the traced pass calls the wrapper
        results.append(run_op(defslice.cli.main, op["argv"], job["limit_s"], tracer is None))
        marks.append(len(speed.samples))
    speed.take(PROBES_BETWEEN_OPS)
    for k, res in enumerate(results):
        start, end = marks[2 * k], marks[2 * k + 1]
        inside = speed.samples[start:end]
        around = speed.samples[start - PROBES_BETWEEN_OPS : end + PROBES_BETWEEN_OPS]
        res["slowdown"] = slowdown(around)
        res["s"] = (res["raw_s"] - sum(inside)) / res["slowdown"]
    reply = {
        "wall_s": sum(r["s"] for r in results),
        "raw_wall_s": sum(r["raw_s"] for r in results),
        "setup_probe_s": sum(setup_probes[:4]),
        "setup_slowdown": slowdown(setup_probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        tracer.remove()
        reply["layers"] = tracer.layer_totals()
        reply["absent"] = tracer.absent
        reply["vseq_distinct"] = len(tracer.vseq_keys)
        reply["combinations"] = tracer.combinations
        reply["spans"] = tracer.write_spans(job["spans"]) if job["spans"] else 0
        reply["unpatched"] = _unpatched()
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
