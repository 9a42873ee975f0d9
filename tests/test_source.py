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
    # A private name is imported where it is used; each such import must be used there.
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


def test_public_names_are_reached_through_the_package():
    # curve_lab._HOME is the one record of where each public name lives: a
    # function calls cl.<name>, which loads the home module on first use and
    # reads its current attribute, so no function imports a public name.
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(Path(curve_lab.__file__).parent.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in curve_lab._HOME]
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


def test_one_freezing_helper():
    # MetricSpace, SampledCurve and LipschitzSample stay the values they were
    # checked as through one rule: only metric._Frozen._set stores past the
    # read-only __setattr__ and marks arrays read-only.
    found, helper = [], set()
    for path in sorted(Path(curve_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node)
                   for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "_Frozen"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "_set"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and (node.attr == "setflags" or node.attr == "__setattr__"
                                                     and isinstance(node.value, ast.Name) and node.value.id == "object")):
                if id(node) in allowed:
                    helper.add(node.attr)
                else:
                    found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == [] and helper == {"setflags", "__setattr__"}


def test_one_input_rule():
    # Every entry point reads its numbers through one rule: only
    # errors._float_array converts to a float array, so none accepts "0.5",
    # true or a NaN that another refuses.
    found, helper = [], 0
    for path in sorted(Path(curve_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node)
                   for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_float_array"
                   and path.name == "errors.py"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.keyword) and node.arg == "dtype"
                    and isinstance(node.value, ast.Name) and node.value.id == "float"):
                if id(node) in allowed:
                    helper += 1
                else:
                    found.append(f"{path.name}:{node.value.lineno}")
    assert found == [] and helper == 1


def _is_infinity(node) -> bool:
    """``np.inf``, ``math.inf`` or ``float("inf")``, or its negation."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "math")
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            and any(isinstance(a, ast.Constant) and str(a.value).lower().lstrip("+-") in ("inf", "infinity")
                    for a in node.args))


def test_one_scalar_rule():
    # Every scalar parameter reads its range through errors._scalar: outside
    # errors.py no comparison has an infinity as an operand and no isinstance
    # tests for a bool, so no site grows its own range or bool check back.
    found = []
    for path in sorted(Path(curve_lab.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(map(_is_infinity, [node.left, *node.comparators])):
                found.append(f"{path.name}:{node.lineno} comparison with an infinity")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool" or isinstance(n, ast.Attribute)
                            and n.attr == "bool_" for n in ast.walk(node.args[1]))):
                found.append(f"{path.name}:{node.lineno} isinstance bool check")
    assert found == []


def test_no_calls_of_the_distance_views():
    # dist, dist_row and submatrix stay only for the benchmark's span tracer;
    # the package reads every distance through pair_distances, and the
    # dist_block view is gone.
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in sorted(Path(curve_lab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("dist", "dist_row", "submatrix", "dist_block")]
    assert found == [] and not hasattr(curve_lab.MetricSpace, "dist_block")


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
