"""The runtime is stdlib-only: every module of the package imports the
standard library or, by a relative import, the package itself."""

import ast
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
