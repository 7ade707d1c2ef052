"""The argv lists of the benchmark workloads (perfbench/workloads.py) at
their default seed, and the knot expressions of their report ops, for the
tests that check the engine and the --json writer on them."""

import importlib.util
from pathlib import Path

from defslice.knotexpr import parse

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def workload_argvs(names, seed=1):
    """The argv list of every op of the named workloads, in order."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for name in names for op in workloads.make_ops(name, seed)]


def workload_report_texts(names=("cables", "cli-mix"), seeds=(1,)):
    """The expression of every report op of the named workloads at each
    seed, as written."""
    argvs = [argv for seed in seeds for argv in workload_argvs(names, seed)]
    return [args[0] for cmd, *args in argvs if cmd == "report"]


def workload_reports(names=("cables", "cli-mix"), seeds=(1,)):
    """The parsed knot expression of every report op of the named
    workloads at each seed that parses."""
    exprs = []
    for text in workload_report_texts(names, seeds):
        try:
            exprs.append(parse(text))
        except ValueError:
            pass  # the workloads' malformed inputs
    return exprs
