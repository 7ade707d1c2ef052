"""The python blocks of README.md run as written: in order, in one
namespace, and each line `expr  # value` shows value as repr(expr), the
comment read up to its first `;`."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
