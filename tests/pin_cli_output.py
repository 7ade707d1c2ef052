"""Check or rewrite the pinned CLI output files.

    PYTHONPATH=src python tests/pin_cli_output.py [--write]

cli_human_output.json and cli_json_output.json beside this script each
hold a registry and a list of cases, each an argv with the exit code and
stdout that `cli.main` gave for it; "{atoms}" in an argv stands for the
path of the registry.  Every case is run again, and each argv whose exit
code or stdout differs is printed; the exit status is 1 if any differ.
A case with no recorded output yet counts as differing, so a new case is
added by writing its argv and running with --write, which rewrites both
files in place with the new output.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from defslice.cli import main as cli_main

HERE = Path(__file__).parent
PINNED = [HERE / "cli_human_output.json", HERE / "cli_json_output.json"]


def run_case(registry, argv, directory):
    """Exit code and stdout of cli.main(argv), with "{atoms}" in argv
    standing for registry written to a file in directory."""
    reg = Path(directory) / "atoms.json"
    reg.write_text(json.dumps(registry))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([a.replace("{atoms}", str(reg)) for a in argv])
    return code, out.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description="Check or rewrite the pinned CLI output files.")
    ap.add_argument("--write", action="store_true", help="rewrite the files with the new output")
    args = ap.parse_args(argv)
    differ = 0
    for path in PINNED:
        pinned = json.loads(path.read_text())
        with tempfile.TemporaryDirectory() as tmp:
            for case in pinned["cases"]:
                code, out = run_case(pinned["registry"], case["argv"], tmp)
                if (code, out) != (case.get("exit"), case.get("stdout")):
                    differ += 1
                    print(f"{path.name}: {json.dumps(case['argv'])}")
                    case["exit"], case["stdout"] = code, out
        if args.write:
            path.write_text(json.dumps(pinned, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
