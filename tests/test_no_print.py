"""Library modules report through return values and exceptions, never
``print``; only the command line, ``cli.py``, writes to the terminal."""

import ast
from pathlib import Path

import pytest

LIBRARY = sorted(p for p in (Path(__file__).parents[1] / "src" / "pilotc").glob("*.py")
                 if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_does_not_print(path):
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert calls == [], f"{path.name} calls print on lines {calls}"
