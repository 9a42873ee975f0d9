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


def test_no_unused_top_level_imports():
    # __init__.py imports what it re-exports.
    modules = sorted(p for p in Path(curve_lab.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if (alias.asname or alias.name.split(".")[0]) not in used]
    assert found == []
