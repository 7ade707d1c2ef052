"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class Generators(unittest.TestCase):
    def test_same_seed_gives_identical_argv_lists(self):
        for w in WORKLOADS:
            self.assertEqual(make_ops(w, 7), make_ops(w, 7), w)

    def test_other_seed_changes_generated_inputs(self):
        for w in ("cli-mix", "wide-sums", "cables"):
            a = [op["argv"] for op in make_ops(w, 1)]
            b = [op["argv"] for op in make_ops(w, 2)]
            self.assertNotEqual(a, b, w)
        self.assertEqual(make_ops("suites", 1), make_ops("suites", 2))

    def test_op_counts_match_benchmark_json(self):
        for entry in BENCHMARK["workloads"]:
            stated = int(re.search(r"(\d+) (?:ops|reports)/pass", entry["why"]).group(1))
            self.assertEqual(stated, len(make_ops(entry["name"], 3)), entry["name"])

    def test_cli_mix_reports_hold_1_to_6_summands(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        from defslice.knotexpr import normalize, parse

        counts = {}
        for op in make_ops("cli-mix", 4):
            if op["argv"][0] == "report" and op["expect"] == 0:
                e = normalize(parse(op["argv"][1]))
                n = len(getattr(e, "parts", (e,)))
                counts[n] = counts.get(n, 0) + 1
        self.assertEqual(set(counts), set(range(1, 7)))

    def test_wide_sums_cover_4_to_10_summands(self):
        sizes = {op["facts"]["summands"] for op in make_ops("wide-sums", 5)}
        self.assertEqual(sizes, set(range(4, 11)))


class Checks(unittest.TestCase):
    def test_closed_form_mismatch_fails_the_op(self):
        op = {"argv": ["report", "T(2,3) # T(2,5)*", "--json"], "expect": 0,
              "facts": {"tau": -1, "genus_bound": 3}}
        data = {"expression": op["argv"][1], "normalized": "T(2,3) # T(2,5)*",
                "tau": {"lo": 1, "hi": 1}, "genus_bound": 3}
        result = {"error": None, "code": 0, "sha256": "x", "stdout": json.dumps(data)}
        self.assertEqual(len(checks.problems(op, result, {})), 1)
        data["tau"] = {"lo": -1, "hi": -1}
        result["stdout"] = json.dumps(data)
        self.assertEqual(checks.problems(op, result, {}), [])
        self.assertEqual(len(checks.problems(op, result, {json.dumps(op["argv"]): "y"})), 1)

    def test_output_of_another_shape_fails_the_op(self):
        op = {"argv": ["surgery", "T(2,3)", "2", "1", "--json"], "expect": 0, "facts": {"rows": 2}}
        result = {"error": None, "code": 0, "sha256": "x", "stdout": json.dumps({"table": []})}
        self.assertEqual(len(checks.problems(op, result, {})), 1)
        result["stdout"] = "[]"
        self.assertEqual(len(checks.problems(op, result, {})), 1)

    def test_wrong_exit_code_fails_the_op(self):
        op = {"argv": ["report", "T(2,4)", "--json"], "expect": 2, "facts": {}}
        result = {"error": None, "code": 0, "sha256": "x", "stdout": ""}
        self.assertEqual(len(checks.problems(op, result, {})), 1)


class Metrics(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
            list(run.END_TO_END.items()),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
            [(m, u) for m, _, _, u in run.PER_LAYER] + [run.TRACE_OVERHEAD],
        )

    def test_smoke_run_prints_every_metric_with_its_unit(self):
        tiny = make_ops("cli-mix", run.DEFAULT_SEED)[:8] + make_ops("suites", 0)[3:]
        original = run.make_ops
        run.make_ops = lambda workload, seed: tiny
        try:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                rec = run.measure("cli-mix", run.DEFAULT_SEED, 0, bool(trace))
                line = run.result_line(rec)
                self.assertTrue(line["correct"], rec["failures"])
                self.assertEqual(line["attempted"], len(tiny) * (1 + trace))
                for m in BENCHMARK[listed]:
                    self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
                if trace:
                    self.assertTrue(rec["wrappers_removed"])
                    self.assertEqual(rec["absent"], [])
                    for name, _, _, unit in run.LAYER_EXTRA:
                        self.assertEqual(rec["layers"][name]["unit"], unit)
        finally:
            run.make_ops = original

    def test_times_are_scaled_to_the_probe_speed(self):
        ops = make_ops("suites", 0)[:1] + make_ops("cli-mix", run.DEFAULT_SEED)[:2]
        setup, reply = run.run_pass(ops, False, time.monotonic() + 120)
        self.assertGreater(setup, 0)
        self.assertAlmostEqual(
            setup, (reply["raw_setup_s"] - reply["setup_probe_s"]) / reply["setup_slowdown"]
        )
        for res in reply["results"]:
            self.assertGreater(res["slowdown"], 0)
            self.assertGreater(res["s"], 0)
            self.assertLessEqual(res["s"] * res["slowdown"], res["raw_s"])
        # the suite takes tens of ms, so probes ran inside it and were
        # taken out of its time
        first = reply["results"][0]
        self.assertLess(first["s"] * first["slowdown"], first["raw_s"])
        self.assertAlmostEqual(reply["wall_s"], sum(r["s"] for r in reply["results"]))


class Tracing(unittest.TestCase):
    def test_wrappers_are_removed(self):
        sys.path.insert(0, str(HERE.parent / "src"))
        import defslice.cli
        import defslice.hf_invariants as hf
        from spans import Tracer

        main, close, get = defslice.cli.main, hf._close, hf.Evaluator.v_seq
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(defslice.cli.main, main)
            self.assertIsNot(hf._close, close)
            hf.Evaluator().v_seq(defslice.cli.parse("T(2,3) # T(2,5)"))
        finally:
            tracer.remove()
        self.assertIs(defslice.cli.main, main)
        self.assertIs(hf._close, close)
        self.assertIs(hf.Evaluator.v_seq, get)
        self.assertGreater(len(tracer.span_name), 0)


if __name__ == "__main__":
    unittest.main()
