"""No check in the package may vanish under ``python -O``."""

import ast
from pathlib import Path

import sgcalc


def test_package_has_no_assert_statements():
    modules = sorted(Path(sgcalc.__file__).resolve().parent.glob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
