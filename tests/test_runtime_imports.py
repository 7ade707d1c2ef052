"""The runtime is stdlib-only: every module of the package imports the
standard library or, by a relative import, the package itself.  It is
also light: importing defslice.cli and building the default certificate
database loads none of dataclasses, typing and inspect, which took about
as long to import as the rest of a command's set-up (py3.11, 2-vCPU VM)."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defslice"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_is_checked():
    assert PACKAGE / "__init__.py" in MODULES and PACKAGE / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = [
        name for name in absolute_imports(tree) if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


HEAVY = ("dataclasses", "typing", "inspect")


def test_cli_set_up_loads_no_heavy_module():
    # a fresh interpreter without site or environment, as a command starts
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import defslice.cli\n"
        "from defslice import certificates\n"
        "certificates.default_db()\n"
        f"print(*[m for m in {HEAVY!r} if m in sys.modules])\n"
    )
    run = subprocess.run(
        [sys.executable, "-E", "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == []
