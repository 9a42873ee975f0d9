"""Checks on the package source itself."""
import ast
from pathlib import Path

import curve_lab


def test_no_assert_statements_in_the_package():
    # Invariants must hold under ``python -O``, which strips asserts.
    modules = sorted(Path(curve_lab.__file__).parent.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
