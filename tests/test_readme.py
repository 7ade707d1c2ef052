"""The examples of README.md run as written.  The python blocks run in
order, in one namespace, and each line `expr  # value` shows value as
repr(expr), the comment read up to its first `;`.  Each json block is a
registry that loads and reports on each of its atoms.  A one-command sh
block followed by a plain block shows that command's output: its lines,
less those holding `...`, appear in order in the output."""

import ast
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

from defslice import cli
from defslice.certificates import load_registry
from defslice.cli import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def comments(block):
    """Line number -> the text of the comment that ends that line."""
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    return {t.start[0]: t.string[1:] for t in tokens if t.type == tokenize.COMMENT}


def test_library_examples_run_as_written():
    namespace, checked = {}, []
    for block in python_blocks(README.read_text(encoding="utf-8")):
        notes = comments(block)
        for node in ast.parse(block).body:
            note = notes.get(node.end_lineno)
            if isinstance(node, ast.Expr) and note is not None:
                got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                expected = note.split(";")[0].strip()
                assert repr(got) == expected, ast.get_source_segment(block, node)
                checked.append(expected)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert len(checked) >= 10


def test_registry_examples_load(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"atoms{i}.json"
        path.write_text(block, encoding="utf-8")
        load_registry(path)
        for name in [rec["name"] for rec in json.loads(block)["atoms"]]:
            assert cli_main(["report", name, "--atoms", str(path)]) == 0, name


def test_cli_example_output(capsys):
    # a one-command sh block followed by the block of its output
    examples = re.findall(
        r"^```sh\n(defslice [^\n]*)\n```\n\n```\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    )
    assert examples
    for command, shown in examples:
        capsys.readouterr()
        assert cli_main(shlex.split(command)[1:]) == 0
        lines = iter(capsys.readouterr().out.splitlines())
        for line in shown.splitlines():
            if "..." not in line:
                assert line in lines, (command, line)


def declared_suite_ranges():
    """Each suite's range flags and their defaults, as the command table
    cli.COMMANDS declares them."""
    return {
        name: {flag: kwargs["default"] for flag, kwargs in suite.flags if kwargs.get("metavar") == "A..B"}
        for name, suite in cli.COMMANDS["suite"].suites.items()
    }


def test_suite_defaults_match_the_parser():
    # the sentence "The suites at their default ranges (`thm1` n=1..20,
    # `thm2` k,l=1..10, ...)" names every suite and the default of each
    # range flag it takes
    (sentence,) = re.findall(r"The suites at their default ranges \((.*?)\)", README.read_text(encoding="utf-8"), re.S)
    shown = {
        name: {f"--{flag}": default for flag in flags.split(",")}
        for name, flags, default in re.findall(r"`(\w+)` ([a-z](?:,[a-z])*)=(\d+\.\.\d+)", sentence)
    }
    assert shown == declared_suite_ranges()
