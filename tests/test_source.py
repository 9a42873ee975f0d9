"""Checks on the package source itself."""
import ast
import importlib
from pathlib import Path

import pytest

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
    # __init__.py resolves its exports lazily, so it is checked like the rest.
    modules = sorted(Path(curve_lab.__file__).parent.glob("*.py"))
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


def test_no_unused_function_imports():
    # cli.py imports per command; each such import must be used where it is.
    found = []
    for path in sorted(Path(curve_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            used = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for node in fn.body if isinstance(node, (ast.Import, ast.ImportFrom))
                      for alias in node.names
                      if (alias.asname or alias.name.split(".")[0]) not in used]
    assert found == []


def test_one_distance_formula():
    # Chords, speeds and every kernel share one set of bits only if one
    # function computes distances: MetricSpace.pair_distances alone takes norms.
    found = []
    for path in sorted(Path(curve_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node)
                   for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "MetricSpace"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "pair_distances"
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "norm"
                      and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                      or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"))
                  and id(node) not in allowed]
    assert found == []


def test_no_calls_of_the_distance_views():
    # dist, dist_row and submatrix stay only for the benchmark's span tracer;
    # the package reads distances through pair_distances and dist_block.
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in sorted(Path(curve_lab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("dist", "dist_row", "submatrix")]
    assert found == []


def test_records_without_dataclasses():
    # A dataclass runs generated code when its module loads; the records do not.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(curve_lab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []
    for name in ("Violation", "ValidationReport", "SeparatedNet", "ProbeFamily", "CheckReport",
                 "DiscontinuityProfile", "ACPReport", "WitnessFunction", "ForgeResult"):
        cls = getattr(curve_lab, name)
        record = cls(*range(len(cls._fields)))
        assert isinstance(record, tuple) and list(record) == list(range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)


def test_lazy_exports_resolve_to_their_home_modules():
    names = curve_lab.__all__
    assert len(set(names)) == len(names) == 45
    for name in names:
        obj = getattr(curve_lab, name)
        assert obj.__module__.startswith("curve_lab.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(names) <= set(dir(curve_lab))
    namespace = {}
    exec("from curve_lab import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(names)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        curve_lab.no_such_name
