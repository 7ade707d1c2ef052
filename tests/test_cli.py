"""CLI surface: subcommands, exit codes, JSON/human parity."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from defslice import certificates, cli
from defslice.cli import MAX_AT_DIGITS, MAX_ROWS, MAX_SURGERY_P, main
from defslice.hf_invariants import Evaluator
from defslice.knotexpr import (
    MAX_DIGITS,
    MAX_GENUS,
    MAX_NESTING,
    MAX_SUMMANDS,
    WHITEHEAD_TREFOIL,
    Atom,
    SizeLimitError,
    Sum,
)
from defslice.obstructions import INCONCLUSIVE, CompositeReport, Verdict
from defslice.signatures import MAX_BOX, MAX_COUNT_DIGITS, MAX_KNOTS

from oracles import all_certified, argparse_tree, family_kn
from pin_cli_output import run_case
from workload_inputs import workload_argvs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(argv):
    """stdout, stderr and exit code of main(argv), argparse refusals and
    -h included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


class TestReport:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "report", "T(2,7)")
        assert code == 0
        assert "tau: 3" in out
        assert "V_0=2" in out and "V_1=1" in out and "V_2=1" in out and "V_3=0" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "report", "T(2,7)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["tau"] == {"lo": 3, "hi": 3}
        assert data["v"][:4] == [
            {"lo": 2, "hi": 2},
            {"lo": 1, "hi": 1},
            {"lo": 1, "hi": 1},
            {"lo": 0, "hi": 0},
        ]

    def test_negative_cable_full_report(self, capsys):
        # a cable with q < 0 is the mirror of the positive cable of the
        # mirrored companion: the same report, with no warning, under
        # --strict too; sigma and surgery evaluate it as well
        text, positive = "cable(2,-1,T(2,3)) # T(2,5)", "cable(2,1,T(2,3)*)* # T(2,5)"
        code, out, _ = run(capsys, "report", text, "--json", "--strict")
        assert code == 0
        data = json.loads(out)
        assert data["warnings"] == [] and data["normalized"] == positive
        _, pos_out, _ = run(capsys, "report", positive, "--json")
        assert {**json.loads(pos_out), "expression": text} == data
        for argv in (["sigma", text, "--strict"], ["surgery", text, "3", "1"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and positive in out

    def test_unknot_inconclusive(self, capsys):
        code, out, _ = run(capsys, "report", "O", "--json")
        data = json.loads(out)
        assert code == 0
        assert all(v["status"] == "inconclusive" for v in data["verdicts"])

    def test_kn_report(self, capsys):
        code, out, _ = run(capsys, "report", "(3*Wh(T(2,3))) # cable(4,1,Wh(T(2,3)))*", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["tau"] == {"lo": -1, "hi": -1}
        assert data["v"][0]["lo"] >= 1
        assert data["topologically_slice_certified"] is True
        any_v = [v for v in data["verdicts"] if v["target"] == "any_definite"][0]
        assert any_v["status"] == "obstructed"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "report", "cable(2,4,T(2,3))")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("opening, depth", [("(", 3000), ("mirror(", 2000)])
    def test_deep_nesting_exit_2(self, capsys, opening, depth):
        code, out, err = run(capsys, "report", opening * depth + "T(2,3)" + ")" * depth)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: expression nested deeper") and err.count("\n") == 1

    @pytest.mark.parametrize("opening", ["(", "mirror("])
    def test_nesting_at_limit(self, capsys, opening):
        text = opening * MAX_NESTING + "T(2,3) # T(2,5)*" + ")" * MAX_NESTING
        code, out, _ = run(capsys, "report", text, "--json")
        assert code == 0
        assert json.loads(out)["tau"] == {"lo": -1, "hi": -1}

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"{MAX_SUMMANDS + 1}*T(2,3)", "summands"),
            ("4096*T(2,3)", "summands"),
            ("2*" * 12 + "T(2,3)", "summands"),
            ("10000000000*10000000000*T(2,3)", "summands"),
            (f"T(2,{2 * MAX_GENUS + 3})", "genus bound"),
            ("cable(2,1," * 14 + "T(2,3)" + ")" * 14, "genus bound"),
            ("cable(3,-2000,T(2,3))", "genus bound"),
        ],
    )
    def test_size_limit_exit_1(self, capsys, text, message):
        code, out, err = run(capsys, "report", text)
        assert code == 1
        assert out == ""
        assert err.startswith("error: expression has") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "template, position",
        [("{}*T(2,3)", 0), ("T({},3)", 2), ("T(2,{})", 4), ("cable({},1,T(2,3))", 6),
         ("cable(2,{},T(2,3))", 8), ("T(2,3) # cable(1,-{},T(2,5))", 17)],
        ids=["multiplicity", "torus-p", "torus-q", "cable-p", "cable-q", "negative"],
    )
    def test_long_literal_exit_2(self, capsys, template, position):
        # past 4300 digits int() raised Python's own ValueError, exit 1
        for digits in (MAX_DIGITS + 1, 5000):
            code, out, err = run(capsys, "report", template.format("1" * digits))
            assert code == 2
            assert out == ""
            assert err == (
                f"parse error: integer literal of {digits} digits, above the limit "
                f"{MAX_DIGITS} (at position {position})\n"
            )

    def test_literal_at_digit_limit(self, capsys):
        code, _, err = run(capsys, "report", "1" * MAX_DIGITS + "*T(2,3)")
        assert code == 1 and "summands" in err
        code, out, _ = run(capsys, "report", f"cable(1,-{'9' * MAX_DIGITS},T(2,3))", "--json")
        assert code == 0
        assert json.loads(out)["genus_bound"] == 1

    @pytest.mark.parametrize(
        "text, genus",
        [
            (f"{MAX_SUMMANDS}*T(2,3)", MAX_SUMMANDS),
            (f"T(2,{2 * MAX_GENUS + 1})", MAX_GENUS),
            ("cable(2,1," * 9 + "T(2,3)" + ")" * 9, 2**9),
        ],
    )
    def test_size_at_limit(self, capsys, text, genus):
        code, out, _ = run(capsys, "report", text, "--json")
        assert code == 0
        assert json.loads(out)["genus_bound"] == genus <= MAX_GENUS

    def test_json_human_numeric_parity(self, capsys):
        _, json_out, _ = run(capsys, "report", "T(2,7)", "--json")
        _, human_out, _ = run(capsys, "report", "T(2,7)")
        data = json.loads(json_out)
        assert f"tau: {data['tau']['lo']}" in human_out
        for k, iv in enumerate(data["v"]):
            assert f"V_{k}={iv['lo']}" in human_out


class TestStrict:
    def test_gap_exit_3(self, capsys, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "Opaque", "genus": 2}]}))
        code, out, _ = run(capsys, "report", "Opaque", "--atoms", str(reg), "--strict")
        assert code == 3
        code, out, _ = run(capsys, "report", "Opaque", "--atoms", str(reg))
        assert code == 0
        assert "warning" in out


class TestAtomsFile:
    def test_missing_atoms_file_exit_1(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "report", "T(2,3)", "--atoms", str(missing))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read registry file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "registry, named",
        [
            ([1, 2], "the top level must be an object"),
            ({"atoms": {"name": "K"}}, "'atoms' must be a list"),
            ({"atoms": [5]}, "registry record is not an object: 5"),
            ({"atoms": [{"name": "K", "tau": "x"}]}, "K: tau must be an integer, got 'x'"),
            ({"atoms": [{"name": "K", "genus": 1.5}]}, "K: genus must be an integer, got 1.5"),
            ({"atoms": [{"name": "K", "v0": True}]}, "K: v0 must be an integer, got True"),
            ({"atoms": [{"name": "K", "lspace": 0}]}, "K: lspace must be true or false, got 0"),
            ({"atoms": [{"name": "K", "alexander": 5}]}, "K: bad Alexander data: "),
            # the message names the offending pair
            ({"atoms": [{"name": "K", "alexander": [[0.5, 1]]}]},
             "K: bad Alexander data: exponent and coefficient must be ints, got 0.5: 1"),
            # the Alexander degree is a lower bound on the genus, so it
            # counts toward the genus limit
            ({"atoms": [{"name": "A", "alexander": [[-10**7, 1], [0, -1], [10**7, 1]]}]},
             "registry record 'A': expression has genus bound 10000000, above the limit 512"),
        ],
        ids=[f"registry{i}" for i in range(10)],
    )
    def test_malformed_registry_exit_1(self, capsys, tmp_path, registry, named):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps(registry))
        code, out, err = run(capsys, "report", "T(2,3)", "--atoms", str(reg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"name": "A b"}, "'A b'"),
            ({"name": 5}, "5"),
            ({"name": "T(2, 3)"}, "'T(2, 3)'"),
            ({"name": "K", "genus": -1}, "K"),
            ({"name": "K", "v0": 3, "genus": 1}, "K"),
            ({"name": "K", "v0_mirror": 2, "genus": 1}, "K"),
            ({"name": "K", "tau": 3, "genus": 1}, "K"),
            ({"name": "K", "tau": -2, "genus": 1}, "K"),
            ({"name": "K", "tau": 1, "genus": 1, "v0": 0}, "K"),
            ({"name": "K", "tau": -1, "genus": 1, "v0_mirror": 0}, "K"),
        ],
    )
    def test_inconsistent_record_exit_1(self, capsys, tmp_path, record, named):
        # each of these loaded before and failed only later, or never parsed
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [record]}))
        code, out, err = run(capsys, "report", "T(2,3)", "--atoms", str(reg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "records, text",
        [
            ([{"name": "G", "genus": 1000}], "T(2,3)"),
            ([{"name": "G", "v0_mirror": MAX_GENUS + 1}], "T(2,3)"),
            ([{"name": "G", "tau": -(MAX_GENUS + 1)}], "T(2,3)"),
            # past the size of a float, which a sum with an unbounded end would meet
            ([{"name": "G", "v0": 10**400}, {"name": "Y"}], "G # Y"),
            ([{"name": "G", "tau": 10**400}, {"name": "Y"}], "G # Y"),
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_record_past_size_limit_exit_1(self, capsys, tmp_path, records, text, json_flag):
        # a certificate number bounds the genus from below, so it counts
        # towards MAX_GENUS, and the record is refused at load
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": records}))
        code, out, err = run(capsys, "report", text, "--atoms", str(reg), *json_flag)
        assert code == 1
        assert out == ""
        assert err.startswith("error: registry record 'G': expression has genus bound ")
        assert err.endswith(f", above the limit {MAX_GENUS}\n") and err.count("\n") == 1

    def test_record_at_size_limit_loads(self, capsys, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "G", "v0": MAX_GENUS, "tau": -MAX_GENUS}]}))
        code, out, _ = run(capsys, "report", "G", "--atoms", str(reg), "--json")
        assert code == 0
        assert json.loads(out)["v"][0] == {"lo": MAX_GENUS, "hi": MAX_GENUS}

    @pytest.mark.parametrize(
        "records, named",
        [
            (
                [{"name": "L", "lspace": True, "tau": 1, "genus": 1,
                  "alexander": [[-1, 2], [0, -3], [1, 2]]}],
                "L: L-space atom needs an Alexander polynomial",
            ),
            (
                [{"name": "A", "tau": 1, "genus": 1}, {"name": "A", "tau": -1, "genus": 1}],
                "two records are named 'A'",
            ),
            (
                [{"name": "O", "tau": 1, "genus": 1, "v0": 1,
                  "alexander": [[0, 1]]}],
                "the unknot 'O' cannot be replaced",
            ),
            (
                [{"name": "T(2,3)", "tau": -1, "genus": 1, "v0_mirror": 1}],
                "registry record 'T(2,3)': tau -1 contradicts the built-in atom, which has 1",
            ),
            (
                [{"name": "Wh(T(2,3))", "tau": 5, "genus": 5, "alexander": [[0, 1]], "v0": 1}],
                "registry record 'Wh(T(2,3))': tau 5 contradicts the built-in atom, which has 1",
            ),
        ],
        ids=["not_lspace_form", "duplicate_name", "unknot", "torus", "whitehead"],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_contradictory_registry_exit_1(self, capsys, tmp_path, records, named, json_flag):
        # all loaded before: the first failed every report that used it, of
        # the second the later record silently won, with the third
        # `report O` found the unknot obstructed, and the last two gave a
        # built-in knot data other than its own
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": records}))
        code, out, err = run(capsys, "report", records[0]["name"], "--atoms", str(reg), *json_flag)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_lspace_v0_is_its_torsion_coefficient(self, capsys, tmp_path, json_flag):
        # t^2 - t + 1 - t^-1 + t^-2, the Alexander polynomial of T(2,5), has
        # t_0 = 1; a record with v0 = 2 loaded before and report printed V_0 = 1
        record = {"name": "L", "lspace": True, "tau": 2, "genus": 2,
                  "alexander": [[-2, 1], [-1, -1], [0, 1], [1, -1], [2, 1]]}
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [dict(record, v0=2)]}))
        code, out, err = run(capsys, "report", "L", "--atoms", str(reg), *json_flag)
        assert code == 1
        assert out == ""
        assert err == "error: L: L-space atom needs v0 = t_0 = 1, got 2\n"
        reg.write_text(json.dumps({"atoms": [dict(record, v0=1)]}))
        code, out, _ = run(capsys, "report", "L", "--atoms", str(reg), *json_flag)
        assert code == 0
        if json_flag:
            assert json.loads(out)["v"][:3] == [{"lo": 1, "hi": 1}, {"lo": 1, "hi": 1}, {"lo": 0, "hi": 0}]
        else:
            assert "V-sequence:  V_0=1  V_1=1  V_2=0" in out

    def test_lspace_form_decides_loading(self, capsys, tmp_path):
        # every lspace record of degree d = 1..3 with a_1..a_d in [-2, 2],
        # a_0 fixed by the value 1 at t = 1: it loads iff every suffix sum
        # a_d + ... + a_{j+1}, j >= 0, is 0 or 1 and a_{d-1} = -1, and then
        # report runs
        reg = tmp_path / "atoms.json"
        seen = loaded = 0
        for d in range(1, 4):
            for top in product(range(-2, 3), repeat=d):
                if top[-1] == 0:
                    continue
                coeffs = (1 - 2 * sum(top), *top)
                pairs = [[0, coeffs[0]]]
                pairs += [[s * k, a] for k, a in enumerate(top, 1) for s in (-1, 1)]
                record = {"name": "L", "lspace": True, "tau": d, "genus": d, "alexander": pairs}
                reg.write_text(json.dumps({"atoms": [record]}))
                code, _, err = run(capsys, "report", "L", "--atoms", str(reg))
                seen += 1
                if all(s in (0, 1) for s in accumulate(reversed(top))) and coeffs[d - 1] == -1:
                    assert code == 0, top
                    loaded += 1
                else:
                    assert code == 1, top
                    assert err.startswith("error: L: L-space atom needs an Alexander polynomial")
        assert (seen, loaded) == (124, 4)

    @pytest.mark.parametrize(
        "alexander, g",
        [
            ([[-2, 1], [0, -1], [2, 1]], 2),
            ([[-3, 1], [-1, -1], [0, 1], [1, -1], [3, 1]], 3),
            ([[-3, 1], [0, -1], [3, 1]], 3),
        ],
        ids=["t2-1+t-2", "t3-t+1-t-1+t-3", "t3-1+t-3"],
    )
    def test_lspace_needs_minus_t_to_the_g_minus_1(self, capsys, tmp_path, alexander, g):
        # a nontrivial L-space knot has t^g - t^(g-1) at the top (Hedden and
        # Watson); t^2 - 1 + t^-2 as an L-space atom read V_0 = 2 > ceil(g/2)
        record = {"name": "L", "lspace": True, "tau": g, "genus": g, "alexander": alexander}
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [record]}))
        code, out, err = run(capsys, "report", "L", "--atoms", str(reg))
        assert (code, out) == (1, "")
        assert err == (
            "error: L: L-space atom needs an Alexander polynomial whose "
            f"t^{g - 1} coefficient is -1\n"
        )

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    def test_lspace_v0_mirror_is_zero(self, capsys, tmp_path, json_flag):
        # the mirror of an L-space knot has V = 0; a record with v0_mirror = 1
        # loaded before, and report 'L*' printed V_0=1 and two obstructions
        record = {"name": "L", "lspace": True, "tau": 2, "genus": 2,
                  "alexander": [[-2, 1], [-1, -1], [0, 1], [1, -1], [2, 1]]}
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [dict(record, v0_mirror=1)]}))
        code, out, err = run(capsys, "report", "L*", "--atoms", str(reg), *json_flag)
        assert (code, out) == (1, "")
        assert err == "error: L: L-space atom needs v0_mirror = 0, got 1\n"
        reg.write_text(json.dumps({"atoms": [dict(record, v0_mirror=0)]}))
        code, out, _ = run(capsys, "report", "L*", "--atoms", str(reg), *json_flag)
        assert code == 0
        if json_flag:
            data = json.loads(out)
            assert data["v"][0] == {"lo": 0, "hi": 0} and data["d1"] == {"lo": 0, "hi": 0}
        else:
            assert "d1: 0" in out and "V-sequence:  V_0=0" in out

    def test_consistent_bounds_load(self, capsys, tmp_path):
        reg = tmp_path / "atoms.json"
        record = {"name": "K", "tau": -1, "genus": 1, "v0": 1, "v0_mirror": 1}
        reg.write_text(json.dumps({"atoms": [record, {"name": "T(2,3)", "genus": 1}]}))
        code, _, _ = run(capsys, "report", "K # T(2,3)", "--atoms", str(reg))
        assert code == 0


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["report", "T(2,3)"], ["suite", "lens", "--json"]])
    def test_exit_1_without_traceback(self, argv, unbuffered):
        # buffered, the write fails in the last flush; unbuffered, in print
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "defslice.cli", *argv],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestSuites:
    def test_lens(self, capsys):
        code, out, _ = run(capsys, "suite", "lens", "--n", "1..10")
        assert code == 0
        assert "suite lens: PASS (10 rows)" in out

    def test_thm1_json(self, capsys):
        code, out, _ = run(capsys, "suite", "thm1", "--n", "1..3", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] and len(data["rows"]) == 3
        assert data["rows"][2]["tau"] == {"lo": -3, "hi": -3}

    def test_thm2(self, capsys):
        code, out, _ = run(capsys, "suite", "thm2", "--k", "1..2", "--l", "1..2")
        assert code == 0
        assert "suite thm2: PASS (4 rows)" in out

    def test_remark(self, capsys):
        code, out, _ = run(capsys, "suite", "remark", "--k", "1..4")
        assert code == 0
        assert "independent at level 3" in out

    def test_bcg(self, capsys):
        code, out, _ = run(capsys, "suite", "bcg", "--n", "1..5")
        assert code == 0

    @pytest.mark.parametrize("value", ["a..b", "1..", "..3", "1..1e3", "0", "3..1"])
    def test_bad_range_exit_1(self, capsys, value):
        # a range that is not A..B of ints, or not 1 <= A <= B, gets one
        # error line
        flag = "--n" if value == "1..1e3" else "--k"
        name = "lens" if flag == "--n" else "thm2"
        code, out, err = run(capsys, "suite", name, flag, value)
        assert (code, out, err) == (1, "", f"error: bad range {value!r}\n")

    def test_failure_exit_1(self, capsys, tmp_path):
        # a Whitehead record that leaves out tau and v0 takes the axioms the
        # family needs out from under it, so the thm1 rows fail
        reg = tmp_path / "atoms.json"
        reg.write_text(
            json.dumps({"atoms": [{"name": "Wh(T(2,3))", "genus": 1, "alexander": [[0, 1]]}]})
        )
        code, out, _ = run(capsys, "suite", "thm1", "--n", "1..2", "--atoms", str(reg))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("fault", ["inconclusive", "other_expression"])
    def test_thm1_needs_the_composite(self, capsys, monkeypatch, fault):
        # a row passes only when the paper's composite is certified and is
        # that row's K_n
        real = cli.composite_cable_obstruction

        def faulty(K, J, n, ev):
            report = real(K, J, n, ev)
            if fault == "inconclusive":
                verdict = Verdict("any_definite", INCONCLUSIVE, [])
                return CompositeReport(report.expression, report.hypotheses, verdict)
            return CompositeReport(family_kn(n - 2), report.hypotheses, report.verdict)

        monkeypatch.setattr(cli, "composite_cable_obstruction", faulty)
        code, out, _ = run(capsys, "suite", "thm1", "--n", "1..2")
        assert code == 1
        assert out.count("[FAIL]") == 2

    def test_thm1_composite_on_every_admitted_row(self, capsys):
        # the composite a thm1 row runs is certified and is K_n for every n
        # the size limits admit (K_n has genus bound n + 6), and past them
        # it is refused as the suite is
        wh = Atom(WHITEHEAD_TREFOIL)
        k, ev = Sum((wh, wh, wh)), Evaluator()
        for n in range(1, MAX_GENUS - 5):
            report = cli.composite_cable_obstruction(k, wh, n + 3, ev)
            assert all_certified(report) and report.verdict.obstructed, n
            assert report.expression == family_kn(n), n
        n = MAX_GENUS - 5
        with pytest.raises(SizeLimitError) as exc:
            cli.composite_cable_obstruction(k, wh, n + 3, ev)
        code, out, err = run(capsys, "suite", "thm1", "--n", str(n))
        assert code == 1 and out == ""
        assert err == f"error: {exc.value}\n"
        assert f"genus bound {n + 6}," in err


class TestSurgery:
    def test_unknot_2_1(self, capsys):
        code, out, _ = run(capsys, "surgery", "O", "2", "1", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["rows"] == [
            {"i": 0, "d": {"num": 1, "den": 4}},
            {"i": 1, "d": {"num": -1, "den": 4}},
        ]

    def test_trefoil_1_1(self, capsys):
        code, out, _ = run(capsys, "surgery", "T(2,3)", "1", "1")
        assert code == 0
        assert "i=0: -2" in out

    def test_q_greater_one(self, capsys):
        code, out, _ = run(capsys, "surgery", "T(2,3)", "2", "3")
        assert code == 0
        assert "i=0: -7/4" in out and "i=1: -9/4" in out


class TestSigma:
    def test_pieces(self, capsys):
        code, out, _ = run(capsys, "sigma", "T(2,3)")
        assert code == 0
        assert "(1/6, 1/2): -2" in out

    def test_at_query_pi_units(self, capsys):
        code, out, _ = run(capsys, "sigma", "T(2,3)", "--at", "1")
        assert code == 0
        assert "at theta = 1*pi: -2" in out

    def test_at_jump_point(self, capsys):
        code, out, _ = run(capsys, "sigma", "T(2,3)", "--at", "1/3")
        assert code == 0
        assert "jump point" in out

    def test_at_zero_denominator_exit_1(self, capsys):
        code, out, err = run(capsys, "sigma", "T(2,3)", "--at", "1/0")
        assert code == 1
        assert out == ""
        assert err == "error: --at 1/0: zero denominator\n"

    @pytest.mark.parametrize("at", [["--at", "3/2"], ["--at=-1/3"], ["--at", "0"]])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_at_outside_range_exit_1(self, capsys, at, json_flag):
        code, out, err = run(capsys, "sigma", "T(2,3)", *at, *json_flag)
        spec = at[-1].removeprefix("--at=")
        assert code == 1
        assert out == ""
        assert err == f"error: --at {spec}: theta/pi must lie in (0, 1]\n"


    @pytest.mark.parametrize("at", ["3/2", "0", "1/0", "x", "1e10000000"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_at_checked_without_signature(self, capsys, tmp_path, at, json_flag):
        # every angle is checked before the signature: a knot without a
        # signature rule refuses a bad angle as T(2,3) does
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "Opaque", "genus": 2}]}))
        want = run(capsys, "sigma", "T(2,3)", "--at", "1/3", "--at", at, *json_flag)
        got = run(capsys, "sigma", "Opaque", "--at", "1/3", "--at", at, "--atoms", str(reg), *json_flag)
        assert got == want
        assert want[0] == 1 and want[1] == "" and want[2].startswith("error: ") and want[2].count("\n") == 1
        code, out, err = run(capsys, "sigma", "Opaque", "--at", "1/3", "--atoms", str(reg), *json_flag)
        assert (code, out) == (0, "") and err.startswith("signature unavailable: ")


class TestCheckBcg:
    def test_range(self, capsys):
        code, out, _ = run(capsys, "check-bcg", "--n", "1..5")
        assert code == 0
        assert "skipped" in out
        assert "cobordism check: PASS (5 rows)" in out


class TestFlags:
    """Each command takes only the flags it reads: --strict belongs to
    report and sigma, --atoms to every command but check-bcg, and each
    suite takes only the range flags its rows read, after its name."""

    RANGE_FLAGS = {"thm1": ["--n"], "thm2": ["--k", "--l"], "remark": ["--k"], "bcg": ["--n"], "lens": ["--n"]}

    DROPPED = [
        (["suite", "lens", "--strict"], "--strict"),
        (["surgery", "T(2,3)", "3", "1", "--strict"], "--strict"),
        (["independence", "T(2,3)", "--strict"], "--strict"),
        (["check-bcg", "--strict"], "--strict"),
        (["check-bcg", "--atoms", "missing.json"], "--atoms missing.json"),
        (["suite", "--json", "lens"], "--json"),
    ] + [
        (["suite", name, flag, "1..1000"], f"{flag} 1..1000")
        for name, read in RANGE_FLAGS.items()
        for flag in ["--n", "--k", "--l"]
        if flag not in read
    ]

    @pytest.mark.parametrize("argv, dropped", DROPPED, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_dropped_flag_exits_2(self, argv, dropped):
        out, err, code = outcome(argv)
        assert (out, code) == ("", 2)
        assert f"unrecognized arguments: {dropped}" in err

    @pytest.mark.parametrize("name", RANGE_FLAGS)
    def test_suite_help_shows_its_range_flags(self, name):
        out, err, code = outcome(["suite", name, "-h"])
        assert (err, code) == ("", 0)
        assert sorted(set(re.findall(r"(--\w+) A\.\.B", out))) == self.RANGE_FLAGS[name]

    def test_check_bcg_json_unchanged(self):
        # the digest that perfbench/goldens.json pins for this op, which
        # check-bcg printed while it still took --atoms and loaded the
        # default database
        out, err, code = outcome(["check-bcg", "--json"])
        assert (err, code) == ("", 0)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "caef047ee6a26edbed3723712d167a00d2ef9adf8bd4f1cb938dace36172a9ad"


class TestArgumentLimits:
    """Each limit on a numeric argument or a suite's family, at the limit and
    one past it; past it the CLI prints one error line and exits 1."""

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "at, past, message",
        [
            (["suite", "thm1", "--n", "506"], ["suite", "thm1", "--n", "507"], "genus bound 513"),
            (["suite", "thm2", "--k", "31", "--l", "1"], ["suite", "thm2", "--k", "32", "--l", "1"], "summands"),
            (["suite", "thm2", "--k", "1", "--l", "506"], ["suite", "thm2", "--k", "1", "--l", "507"], "genus"),
            (["suite", "remark", "--k", "58"], ["suite", "remark", "--k", "59"], "summands"),
        ],
    )
    def test_suite_family_size(self, capsys, at, past, message):
        code, out, _ = run(capsys, *at, "--json")
        assert code == 0 and json.loads(out)["passed"]
        assert message in self.refused(capsys, *past)

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "lens", "--n"],
            ["suite", "bcg", "--n"],
            ["suite", "thm1", "--n"],
            ["check-bcg", "--n"],
        ],
    )
    def test_range_length(self, capsys, argv):
        code, out, _ = run(capsys, *argv, f"1..{MAX_ROWS}")
        assert code == 0 and f"({MAX_ROWS} rows)" in out
        assert f"{MAX_ROWS + 1} values" in self.refused(capsys, *argv, f"1..{MAX_ROWS + 1}")

    def test_thm2_pairs(self, capsys):
        code, out, _ = run(capsys, "suite", "thm2", "--k", "1..10", "--l", "1..10")
        assert code == 0 and f"({MAX_ROWS} rows)" in out
        err = self.refused(capsys, "suite", "thm2", "--k", "1..10", "--l", "1..11")
        assert "110 (k, l) pairs" in err

    def test_surgery_p(self, capsys):
        code, out, _ = run(capsys, "surgery", "T(2,3)", str(MAX_SURGERY_P), "1", "--json")
        assert code == 0 and len(json.loads(out)["rows"]) == MAX_SURGERY_P
        err = self.refused(capsys, "surgery", "T(2,3)", str(MAX_SURGERY_P + 1), "1")
        assert "numerator" in err

    def test_independence_box(self, capsys, monkeypatch):
        # the rank stays 1 however many copies, so only the box can refuse
        assert 3**12 > MAX_BOX
        assert "coefficient vectors" in self.refused(capsys, "independence", *["T(2,3)"] * 12, "--bound", "1")
        monkeypatch.setattr("defslice.signatures.MAX_BOX", 3**3)
        code, out, _ = run(capsys, "independence", *["T(2,3)"] * 3, "--bound", "1")
        assert code == 1 and "(1, -1, 0)" in out
        err = self.refused(capsys, "independence", *["T(2,3)"] * 4, "--bound", "1")
        assert "rank 1 < 4" in err and "81 coefficient vectors" in err

    def test_independence_expressions(self, capsys):
        knots = [f"T(2,{2 * j + 1})" for j in range(1, MAX_KNOTS + 2)]
        code, out, _ = run(capsys, "independence", *knots[:MAX_KNOTS], "--bound", "1")
        assert code == 0 and out.startswith("independent at level 1")
        err = self.refused(capsys, "independence", *knots, "--bound", "1")
        assert f"{MAX_KNOTS + 1} expressions, above the limit {MAX_KNOTS}" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_independence_count(self, capsys, json_flag):
        # two knots at the largest bound whose count has at most
        # MAX_COUNT_DIGITS = 600 digits: 2*bound + 1 = 10^300 - 1, and one
        # more makes (10^300 + 1)^2 - 1, of 601 digits
        assert MAX_COUNT_DIGITS == 600
        knots, at = ["T(2,3)", "T(2,5)"], (10**300 - 2) // 2
        count = (10**300 - 1) ** 2 - 1
        code, out, _ = run(capsys, "independence", *knots, "--bound", str(at), *json_flag)
        assert code == 0
        if json_flag:
            assert json.loads(out)["combinations"] == count
        else:
            assert out == f"independent at level {at} ({count} combinations checked)\n"
        for past in (at + 1, 10**2200):
            err = self.refused(capsys, "independence", *knots, "--bound", str(past), *json_flag)
            assert "more than 600 digits" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_sigma_at_digits(self, capsys, json_flag):
        # numerator and denominator as written: 10^599 has 600 digits, and
        # 1.5e-598 is 15/10^599
        assert MAX_AT_DIGITS == 600
        big = 10**599
        for at in ["1e-599", "1.5e-598", f"{big}/{big + 1}", "1/3", "0.25", "2.5e-1"]:
            code, out, _ = run(capsys, "sigma", "T(2,3)", "--at", at, *json_flag)
            assert code == 0 and out
        pasts = ["1e-600", "1e600", "1.5e-599", f"{10 * big}/{big + 1}", f"1/{10 * big}"]
        # these took seconds to build, and could not be printed
        pasts += ["1e-1000000", "1e10000000", "1e" + "9" * 5000]
        for past in pasts:
            err = self.refused(capsys, "sigma", "T(2,3)", "--at", "1/3", "--at", past, *json_flag)
            assert "more than 600 digits" in err


class TestIndependence:
    def test_independent(self, capsys):
        code, out, _ = run(
            capsys,
            "independence",
            "T(2,11) # 6*T(2,3)*",
            "T(2,13) # 7*T(2,3)*",
            "--bound",
            "2",
        )
        assert code == 0
        assert "independent at level 2" in out

    def test_dependent_exit_1(self, capsys):
        code, out, _ = run(capsys, "independence", "T(2,3)", "T(2,3)", "--bound", "1")
        assert code == 1
        assert "(1, -1)" in out


def repeated_corpus(reg):
    """One argv of each command and output shape, with --atoms reg, the
    parse and argparse refusals and -h among them."""
    return [
        ["report", "T(2,3) # T(3,4)*"],
        ["report", "T(2,3) # T(3,4)*", "--json"],
        # the registry redefines T(2,3), already looked up above
        ["report", "T(2,3)", "--atoms", reg],
        ["report", "T(2,3)", "--atoms", reg, "--strict", "--json"],
        ["report", "T(2,3)", "--strict"],
        ["sigma", "T(2,3) # T(2,5)", "--at", "1/3", "--at", "1"],
        ["sigma", "T(2,3) # T(2,5)"],
        ["sigma", "T(2,3)", "--at", "1/5", "--json"],
        ["sigma", "T(2,3)", "--json"],
        ["sigma", "Wh(T(2,3))", "--strict"],
        ["surgery", "T(2,3)", "3", "2", "--atoms", reg],
        ["surgery", "T(2,3)", "3", "2", "--json"],
        ["suite", "thm1", "--n", "1..2"],
        ["suite", "lens", "--n", "1..2", "--json"],
        ["check-bcg", "--n", "1..2"],
        ["check-bcg", "--n", "1..2", "--json"],
        ["independence", "T(2,3)", "T(2,5)", "--bound", "1"],
        ["independence", "T(2,3)", "T(2,3)", "--bound", "1", "--json"],
        ["report", "T(2,3) #"],
        ["sigma", "T(2,4)", "--json"],
        ["report", "--bogus", "T(2,3)"],
        ["suite", "thm9"],
        ["surgery", "T(2,3)", "x", "1"],
        [],
        ["-h"],
        ["sigma", "-h"],
        ["report", "T(2,3)"],
    ]


class TestRepeatedMain:
    """main called many times in one process, as a library session does:
    each call's output matches a call made with the parser and the built-in
    certificates dropped, whatever the calls before it were."""

    def test_output_does_not_depend_on_earlier_calls(self, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "T(2,3)", "genus": 1}]}))
        reg = str(reg)
        corpus = repeated_corpus(reg)
        codes = set()
        # twice through, so every call also follows itself
        warm = [outcome(argv) for argv in corpus + corpus]
        for argv, got in zip(corpus + corpus, warm):
            cli._parser.cache_clear()
            certificates.builtin.cache_clear()
            assert got == outcome(argv), argv
            codes.add(got[2])
        assert codes == {0, 1, 2, 3}

    def test_surgery_keeps_no_memory(self):
        # 20 surgeries of P = 9998 in one process leave nothing behind: the
        # interpreter's count of allocated blocks grows by about 2.3 thousand
        # across them, and by about a million with a process-wide cache of
        # the lens terms (which held 49.8 MiB).  The count covers only the
        # small-object allocator's blocks (512 bytes or less), and is 0 when
        # that allocator is off (PYTHONMALLOC=malloc), so the test then skips
        gc.collect()
        before = sys.getallocatedblocks()
        if before == 0:
            pytest.skip("sys.getallocatedblocks() counts nothing without pymalloc")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for q in range(1, 41, 2):
                assert main(["surgery", "T(2,3)", "9998", str(q), "--json"]) == 0
        gc.collect()
        assert sys.getallocatedblocks() - before < 50_000


# Full human-form stdout and exit code of one command of each output shape,
# in cli_human_output.json; "{atoms}" in an argv stands for the path of the
# registry stored there.  tests/pin_cli_output.py checks or rewrites both
# pinned files.
HUMAN = json.loads((Path(__file__).parent / "cli_human_output.json").read_text())


# Full --json stdout and exit code of every subcommand that prints JSON, in
# cli_json_output.json, with the same "{atoms}" convention.
JSON_CASES = json.loads((Path(__file__).parent / "cli_json_output.json").read_text())


def assert_pinned(tmp_path, registry, case):
    assert run_case(registry, case["argv"], tmp_path) == (case["exit"], case["stdout"])


@pytest.mark.parametrize("case", HUMAN["cases"], ids=lambda case: " ".join(case["argv"]))
def test_human_output_is_pinned(tmp_path, case):
    assert_pinned(tmp_path, HUMAN["registry"], case)


@pytest.mark.parametrize("case", JSON_CASES["cases"], ids=lambda case: " ".join(case["argv"]))
def test_json_output_is_pinned(tmp_path, case):
    assert_pinned(tmp_path, JSON_CASES["registry"], case)


def reading(parse, argv):
    """What parse(argv) gives, with what it prints: the attributes it sets,
    each handler by its name, or the code of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
            got = {k: v.__name__ if callable(v) else v for k, v in args.items()}
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


def parsers(parser, path=()):
    """Each parser of an argparse tree, by the command words that reach it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, path + (name,))


# The words of the random argvs: command and suite names, every flag, =
# forms, abbreviations, "--", negative numbers, -h, and values, ints among
# them, that some flag or positional takes
ARGV_WORDS = (
    ["report", "suite", "surgery", "sigma", "check-bcg", "independence", "thm1", "thm2", "remark", "bcg", "lens"]
    + ["--json", "--atoms", "--strict", "--at", "--n", "--k", "--l", "--bound", "-h", "--help", "--"]
    + ["--n=1..2", "--bound=2", "--atoms=a.json", "--at=1/2", "--json=1", "--js", "--str", "--b", "--bogus"]
    + ["-1", "-3", "-1/2", "-", "-x", "T(2,3)", "T(2,3) # T(2,5)", "a.json", "1..2", "1/3", "1", "3", "0"]
    + [" 2", "3_0", "x", ""]
)


# A well-formed start for each command and suite
ARGV_STARTS = (
    ["report", "T(2,3)"],
    ["surgery", "T(2,3)", "3", "1"],
    ["sigma", "T(2,3)"],
    ["check-bcg"],
    ["independence", "T(2,3)", "T(2,5)"],
    *[["suite", name] for name in ("thm1", "thm2", "remark", "bcg", "lens")],
)


# Each flag with a value it takes
FLAG_USES = (["--json"], ["--atoms", "a.json"], ["--strict"], ["--at", "1/3"], ["--n", "1..2"])
FLAG_USES += (["--k", "1..2"], ["--l", "1..2"], ["--bound", "2"])


def random_argvs(count, seed=34):
    """count argvs: half of them random words, half a well-formed start
    with flags put after it, each with its value, and now and then a
    random word put anywhere."""
    rng = random.Random(seed)
    argvs = []
    for i in range(count):
        if i % 2:
            argvs.append(rng.choices(ARGV_WORDS, k=rng.randrange(8)))
            continue
        argv = list(rng.choice(ARGV_STARTS))
        for use in rng.choices(FLAG_USES, k=rng.randrange(4)):
            argv += use
        if rng.random() < 0.3:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(ARGV_WORDS))
        argvs.append(argv)
    return argvs


def reads(argv):
    """True when cli._read reads argv itself, without argparse."""
    try:
        return cli._read(argv) is not None
    except ValueError:
        return False


class TestArgvReader:
    """main reads a well-formed argv from cli.COMMANDS without argparse and
    leaves every other to the argparse tree that cli._parser() builds from
    the table.  Together they read each argv as the argparse tree with
    parents that the table replaced (oracles.argparse_tree) reads it: the
    same attributes, or the same exit code, help, usage and error text."""

    WORKLOADS = ("suites", "cli-mix", "wide-sums", "cables")

    def corpus(self):
        help_paths = [path for path, _ in parsers(argparse_tree())]
        pinned = [case["argv"] for case in HUMAN["cases"] + JSON_CASES["cases"]]
        return (
            [argv for seed in (1, 2, 3) for argv in workload_argvs(self.WORKLOADS, seed)]
            + repeated_corpus("atoms.json")
            + [argv for argv, _ in TestFlags.DROPPED]
            + [[word.replace("{atoms}", "atoms.json") for word in argv] for argv in pinned]
            + [[*path, flag] for path in help_paths for flag in ("-h", "--help")]
            + random_argvs(5000)
        )

    def test_reads_as_the_argparse_tree(self):
        corpus = self.corpus()
        expected = [reading(argparse_tree().parse_args, argv) for argv in corpus]
        assert [argv for argv, want in zip(corpus, expected) if reading(cli._args, argv) != want] == []
        # both ways of reading are met; what the reader leaves holds help,
        # errors, and argvs such as --n=1..2 that argparse reads
        left = [want[0] for argv, want in zip(corpus, expected) if not reads(argv)]
        assert len(corpus) // 4 < len(left) < len(corpus) * 3 // 4
        assert {got if isinstance(got, int) else "read" for got in left} == {0, 2, "read"}

    def test_help_matches_the_oracle(self):
        got = {path: p.format_help() for path, p in parsers(cli._parser())}
        assert got == {path: p.format_help() for path, p in parsers(argparse_tree())}
        assert len(got) == 12

    def test_workload_argvs_skip_argparse(self):
        for seed in (1, 2, 3):
            for argv in workload_argvs(self.WORKLOADS, seed):
                assert reads(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["report", "T(2,3)", "--help"],
            ["suite", "thm1", "--n=1..2"],
            ["report", "--", "T(2,3)"],
            ["report", "T(2,3)", "--js"],
            ["surgery", "T(2,3)", "-3", "1"],
            ["independence", "T(2,3)", "--json", "T(2,5)"],
            ["surgery", "T(2,3)", "3"],
            ["surgery", "T(2,3)", "x", "1"],
            ["independence", "T(2,3)", "--bound", "two"],
            ["report", "T(2,3)", "T(2,5)"],
            ["sigma", "T(2,3)", "--at", "-1/2"],
            ["report", "T(2,3)", "--atoms"],
            ["suite", "--json", "thm1"],
            ["suite", "thm9"],
            ["check-bcg", "--atoms", "a.json"],
        ],
        ids=" ".join,
    )
    def test_leaves_argv_to_argparse(self, argv):
        assert not reads(argv)


# Expression text: well-formed expressions, strings of grammar pieces, and
# the two spliced, with multiplicities and torus and cable parameters on
# both sides of the size limits.
FUZZ_ATOMS = ["T(2,3)", "T(3,4)", f"T(2,{2 * MAX_GENUS + 1})", f"T(2,{2 * MAX_GENUS + 3})", "Wh(T(2,3))", "O"]
FUZZ_INTS = ["-3", "0", "1", "2", "3", str(MAX_SUMMANDS), str(MAX_SUMMANDS + 1), "4096", "99999999999"]
_ints = st.sampled_from(FUZZ_INTS)


def expression_text(atoms):
    tokens = atoms + FUZZ_INTS + [
        "K", "T", "Wh(", "T(", "mirror(", "cable(", "(", ")", "#", "*", ",", " ", "@", "1/0",
    ]
    well_formed = st.recursive(
        st.sampled_from(atoms),
        lambda c: st.one_of(
            st.tuples(c, c).map(" # ".join),
            c.map("mirror({})".format),
            c.map("({})*".format),
            st.tuples(_ints, c).map("*".join),
            st.tuples(_ints, _ints, c).map(lambda t: "cable({},{},{})".format(*t)),
        ),
        max_leaves=6,
    )
    pieces = st.lists(st.sampled_from(tokens), max_size=14).map("".join)
    return st.one_of(well_formed, pieces, st.tuples(well_formed, pieces).map("".join))


fuzz_text = expression_text(FUZZ_ATOMS)
fuzz_commands = st.sampled_from(
    [
        ["report"],
        ["report", "--json", "--strict"],
        ["sigma", "--at", "1/3"],
        ["surgery", "3", "2"],
        ["surgery", "3", "2", "--json"],
        ["independence"],
    ]
)

# Registries of the atoms A and B whose numbers lie on both sides of the
# size limit and past the size of a float; a record may be refused at load.
_FUZZ_NUMBERS = [0, 1, MAX_GENUS, MAX_GENUS + 1, 10**400]
_number = st.sampled_from(_FUZZ_NUMBERS)


def _fuzz_record(name):
    return st.fixed_dictionaries(
        {"name": st.just(name)},
        optional={
            "genus": _number,
            "tau": st.sampled_from(_FUZZ_NUMBERS + [-n for n in _FUZZ_NUMBERS[1:]]),
            "v0": _number,
            "v0_mirror": _number,
        },
    )


fuzz_registry = st.tuples(_fuzz_record("A"), _fuzz_record("B")).map(lambda atoms: {"atoms": list(atoms)})


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_clean_run(argv):
    """A documented exit code, no traceback, and strict JSON: an infinity
    or a NaN that leaks into the output fails.  The exit code is counted
    as a hypothesis event (see --hypothesis-show-statistics)."""
    out, err, code = outcome(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if "--json" in argv and out:
        json.loads(out, parse_constant=_no_constant)
    for line in out.splitlines():
        if line.startswith("      evidence: "):
            json.loads(line.removeprefix("      evidence: "), parse_constant=_no_constant)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(command=fuzz_commands, text=fuzz_text, other=fuzz_text)
    def test_exit_code_and_no_traceback(self, command, text, other):
        argv = [command[0], text, *command[1:]]
        if command[0] == "independence":
            argv.append(other)
        assert_clean_run(argv)

    @settings(max_examples=300, deadline=None)
    @given(
        command=fuzz_commands,
        text=expression_text(FUZZ_ATOMS + ["A", "B"]),
        other=expression_text(FUZZ_ATOMS + ["A", "B"]),
        registry=fuzz_registry,
    )
    # numbers past the size of a float beside an unbounded end
    @example(["report"], "A # B", "O", {"atoms": [{"name": "A", "v0": 10**400}, {"name": "B"}]})
    @example(["report"], "A # B", "O", {"atoms": [{"name": "A", "tau": 10**400}, {"name": "B"}]})
    # a cable around an atom that counts genus 0
    @example(["report"], "cable(99999999999,1,A)", "O", {"atoms": [{"name": "A"}, {"name": "B"}]})
    def test_registry_exit_code_and_no_traceback(self, tmp_path_factory, command, text, other, registry):
        reg = tmp_path_factory.getbasetemp() / "fuzz_atoms.json"
        reg.write_text(json.dumps(registry))
        try:
            certificates.load_registry(reg)
            event("registry loads")
        except ValueError:
            event("registry refused")
        argv = [command[0], text, *command[1:], "--atoms", str(reg)]
        if command[0] == "independence":
            argv.append(other)
        assert_clean_run(argv)
