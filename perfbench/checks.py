"""Correctness checks on one op's result, none of which uses the engine.

An op passes when it returned its expected exit code without raising or
timing out, its stdout satisfies the closed-form facts the generator
computed, and its stdout digest equals the golden digest recorded for the
same argv, when there is one.
"""

from __future__ import annotations

import json

# rows each suite prints at its default range
SUITE_ROWS = {"thm1": 20, "thm2": 100, "remark": 21, "bcg": 50, "lens": 100, "check-bcg": 50}


def _exact(value):
    return {"lo": value, "hi": value}


def _suite_problems(name, data):
    rows = data["rows"]
    if data.get("passed") is not True:
        yield "suite did not report passed: true"
    if len(rows) != SUITE_ROWS[name]:
        yield f"{len(rows)} rows, expected {SUITE_ROWS[name]}"
    for row in rows:
        if name == "thm1" and row["tau"] != _exact(-row["n"]):
            yield f"thm1 n={row['n']}: tau {row['tau']} != -n"
        if name == "thm2":
            k, l = row["k"], row["l"]
            if row["tau"] != _exact(-l):
                yield f"thm2 k={k} l={l}: tau {row['tau']} != -l"
            if row["k_plus_lo"] < k or row["k_minus_lo"] < l:
                yield f"thm2 k={k} l={l}: kinkiness bounds below (k, l)"
        if name == "remark" and "k" in row and row["sigma_at_-1"] != 2:
            yield f"remark k={row['k']}: sigma(J_k)(-1) = {row['sigma_at_-1']} != 2"


def _report_problems(argv, facts, data):
    if data["expression"] != argv[1]:
        yield "report does not echo its expression"
    if "tau" in facts and data["tau"] != _exact(facts["tau"]):
        yield f"tau {data['tau']} != closed form {facts['tau']}"
    if "genus_bound" in facts and data["genus_bound"] != facts["genus_bound"]:
        yield f"genus bound {data['genus_bound']} != closed form {facts['genus_bound']}"
    if "summands" in facts and data["normalized"].count(" # ") + 1 != facts["summands"]:
        yield f"normalized form does not have {facts['summands']} summands"


def _data_problems(argv, facts, data):
    if "suite" in facts:
        yield from _suite_problems(facts["suite"], data)
    elif argv[0] == "report":
        yield from _report_problems(argv, facts, data)
    elif argv[0] == "surgery" and len(data["rows"]) != facts["rows"]:
        yield f"{len(data['rows'])} surgery rows, expected {facts['rows']}"
    elif argv[0] == "sigma" and len(data["queries"]) != facts["queries"]:
        yield f"{len(data['queries'])} sigma queries, expected {facts['queries']}"
    elif argv[0] == "independence":
        if data["combinations"] != facts["combinations"]:
            yield f"{data['combinations']} combinations, expected {facts['combinations']}"
        if data["independent"] is not True:
            yield "distinct T(2,2j+1) reported dependent"


def problems(op, result, goldens):
    """List of reasons the op failed; empty when it passed."""
    out = []
    if result["error"] is not None:
        return [result["error"]]
    if result["code"] != op["expect"]:
        out.append(f"exit code {result['code']}, expected {op['expect']}")
    golden = goldens.get(json.dumps(op["argv"]))
    if golden is not None and golden != result["sha256"]:
        out.append("stdout digest differs from the golden digest")
    if op["expect"] != 0:
        if result["stdout"]:
            out.append("a rejected input printed to stdout")
        return out
    try:
        data = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return out + ["stdout is not JSON"]
    try:
        out.extend(_data_problems(op["argv"], op["facts"], data))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        # output of another shape fails the op; the run goes on
        out.append(f"stdout JSON lacks an expected field: {type(exc).__name__}: {exc}")
    return out
