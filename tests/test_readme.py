"""README's "Library quick start" block runs and returns what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_library_quick_start():
    """Each expression line whose trailing comment is a Python literal
    evaluates to that literal, of the same type; the last line prints as
    its comment."""
    namespace = {}
    checked = []
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        if not isinstance(ast.parse(code).body[0], ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert (type(value), value) == (type(expected), expected), line
        checked.append(expected)
    assert checked == [True, 1, False, True, "TP10", True]
    assert str(value) == "Disk(5)"
