"""The README's library example runs and prints what its comments promise."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_keeps_its_promises():
    namespace: dict = {}
    shown = []  # the value of each bare expression, as a REPL would echo it
    for stmt in ast.parse(_library_example()).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    m2, m0, metric = shown
    assert m2 == pytest.approx(2 / 3, rel=1e-15)
    assert m0 == 1.0 and type(m0) is float
    assert metric == pytest.approx(7.5, rel=1e-15)
