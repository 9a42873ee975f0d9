import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curve_lab import cli
from curve_lab.cli import main
from conftest import MALFORMED_SPACES

L_CSV = "t,x1,x2\n0,0,0\n0.5,1,0\n1,1,1\n"
# Unit segment sampled at multiples of 1/8 so quarter-tooth folds land on-grid.
SEG_CSV = "t,x1,x2\n" + "".join(f"{i / 8},{i / 8},0\n" for i in range(9))


@pytest.fixture
def seg(tmp_path):
    path = tmp_path / "seg.csv"
    path.write_text(SEG_CSV)
    return str(path)


@pytest.fixture
def lpoly(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text(L_CSV)
    return str(path)


def assert_input_error(argv, capsys):
    """``main(argv)`` exits 2 with one ``error:`` line and no stdout."""
    capsys.readouterr()
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:6] for line in captured.err.splitlines()] == ["error:"], argv


def test_variation_prints_value(lpoly, tmp_path, capsys):
    # Without --out, stdout gets the bytes that --out writes.
    out = tmp_path / "v.json"
    assert main(["variation", "--curve", lpoly]) == 0
    printed = capsys.readouterr().out
    assert main(["variation", "--curve", lpoly, "--out", str(out)]) == 0
    assert printed == out.read_text()
    assert json.loads(printed)["total_variation"] == 2.0


def test_sawtooth_witness_artifact(seg, tmp_path, capsys):
    out = tmp_path / "w.json"
    assert main(["sawtooth", "--curve", seg, "--tooth", "0.25",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificates"]["composed_variation"] >= 1.0 - 1e-9
    assert doc["certificates"]["sup_abs"] <= 0.25
    assert_input_error(["sawtooth", "--curve", seg, "--tooth", "nan"], capsys)

def test_check_contraction_fake_l_exits_2(seg, tmp_path, capsys):
    fake = tmp_path / "fake.json"
    support = list(range(9))
    # Values with slope 2 but declared L = 1: inconsistent sample data; then
    # a NaN value, a missing L, a non-numeric entry and one-point supports
    # outside the space.
    for doc in ({"support": support, "values": [i / 4 for i in range(9)], "L": 1.0},
                {"support": support, "values": [0.0, float("nan")] + [1.0] * 7, "L": 1.0},
                {"support": support, "values": [i / 8 for i in range(9)]},
                {"support": support, "values": [i / 8 for i in range(9)], "L": "one"},
                {"support": [-1], "values": [0.0], "L": 1.0},
                {"support": [99], "values": [0.0], "L": 1.0}):
        fake.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", "contraction", "--curve", seg, "--h", str(fake)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line[:6] for line in captured.err.splitlines()] == ["error:"]


def test_extend_names_the_non_finite_input(tmp_path, capsys):
    # A null value is NaN: the error names the values, not the finite L.
    space, h = tmp_path / "line.json", tmp_path / "h.json"
    space.write_text(json.dumps({"kind": "euclidean", "data": [[0.0], [1.0]]}))
    h.write_text(json.dumps({"support": [0, 1], "values": [None, 1], "L": 1}))
    capsys.readouterr()
    assert main(["extend", "--space", str(space), "--h", str(h)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: sample values must be finite"]


def test_check_contraction_passes(seg, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 8 for i in range(9)], "L": 1.0}))
    out = tmp_path / "report.json"
    assert main(["check", "contraction", "--curve", seg, "--h", str(h),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"


def test_unknown_command_exits_2(lpoly, capsys, monkeypatch):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "frobnicate" in err[0]
    # main builds only the branch argv names; the full parser gives the same
    # exit codes and bytes, for usage errors too.
    argvs = (["frobnicate"], ["check"], ["check", "frobnicate"],
             ["variation", "--curve", lpoly, "--tooth", "0.1"], ["speed", "--curve", lpoly],
             ["check", "luzin", "--curve", lpoly, "--null-set", "-0.5:0.5", "--delta", "0.1"])
    build = cli._build_parser
    results = []
    for parser in (build, lambda argv=None: build()):
        monkeypatch.setattr(cli, "_build_parser", parser)
        results.append([(main(argv), capsys.readouterr()) for argv in argvs])
    assert results[0] == results[1]
    assert [code for code, _ in results[0]] == [2, 2, 2, 2, 2, 0]


def test_missing_file_exits_2(lpoly, capsys):
    assert main(["variation", "--curve", "/nonexistent/c.csv"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["variation", "--curve", lpoly, "--out", "/nonexistent/tv.json"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write /nonexistent/tv.json")


def test_validate_metric(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "matrix", "data": [[0, 1], [1, 0]]}))
    assert main(["validate-metric", "--space", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"kind": "matrix", "data": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    capsys.readouterr()
    assert main(["validate-metric", "--space", str(bad)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["passed"]
    assert any(v["axiom"] == "triangle" for v in doc["violations"])

    # Euclidean and graph spaces are metrics once they load; distinct points
    # whose distance rounds to 0 or overflows are still reported.
    cases = [({"kind": "euclidean", "data": [[0, 0], [3, 4], [1, 1]]}, 0, set()),
             ({"kind": "graph", "n": 3, "data": [[0, 1, 1.0], [1, 2, 2.0]]}, 0, set()),
             ({"kind": "euclidean", "data": [[0, 0], [1e-200, 0], [1, 1]]}, 1, {"positivity"}),
             ({"kind": "euclidean", "data": [[0, 0], [1e200, 0]]}, 2, None)]
    # The same edges among spiral points, across chunk edges of the net.
    t = np.linspace(0.0, 1.0, 100)
    spiral = (0.2 + t)[:, None] * np.column_stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)])
    for i, j in [(31, 32), (63, 64), (0, 99)]:
        pts = spiral.copy()
        pts[[i, j]] = [[0.0, 0.0], [1e-200, 0.0]]
        cases.append(({"kind": "euclidean", "data": pts.tolist()}, 1, {"positivity"}))
    # Points the square root of the smallest normal apart pass the net; half
    # that passes the full table, whose distance is subnormal but positive.
    root = float(np.sqrt(np.finfo(float).tiny))
    a = 1.1e154  # the box extent overflows, no distance does
    cases += [({"kind": "euclidean", "data": [[0, 0], [root, 0], [1, 1]]}, 0, set()),
              ({"kind": "euclidean", "data": [[0, 0], [root / 2, 0], [1, 1]]}, 0, set()),
              ({"kind": "euclidean", "data": (1e150 * spiral[:40]).tolist()}, 0, set()),
              ({"kind": "euclidean", "data": [[a, a / 2], [0, 0], [a / 2, a]]}, 0, set())]
    for doc, code, axioms in cases:
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate-metric", "--space", str(bad)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.splitlines() == ["error: distance table must be finite"]
        else:
            out = json.loads(captured.out)
            assert out["passed"] == (code == 0)
            assert {v["axiom"] for v in out["violations"]} == axioms


def test_speed_and_content(seg, tmp_path, capsys):
    printed = {}
    for argv in (["speed", "--curve", seg, "--t", "0.5", "--window", "0.25"],
                 ["content", "--curve", seg, "--delta", "0.25"]):
        capsys.readouterr()
        assert main(argv) == 0
        printed[argv[0]] = capsys.readouterr().out
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert printed[argv[0]] == out.read_text()
    assert json.loads(printed["speed"]) == {"t": 0.5, "window": 0.25, "side": "both",
                                            "speed": pytest.approx(1.0)}
    content = json.loads(printed["content"])
    assert content["delta"] == 0.25 and 0.8 <= content["content"] <= 1.2
    for window in ("nan", "inf", "0"):
        assert_input_error(["speed", "--curve", seg, "--t", "0.5", "--window", window], capsys)


def test_reparam_roundtrip(lpoly, tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["reparam", "--curve", lpoly, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,point_id"
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == [0.0, 1.0, 2.0]
    # Without --out the same CSV goes to stdout.
    capsys.readouterr()
    assert main(["reparam", "--curve", lpoly]) == 0
    assert capsys.readouterr().out == out.read_bytes().decode()


def test_extend_and_probes(tmp_path, capsys):
    space = tmp_path / "line.json"
    space.write_text(json.dumps(
        {"kind": "euclidean", "data": [[0.0], [1.0], [0.5]]}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"support": [0, 1], "values": [0.0, 1.0], "L": 1.0}))
    assert main(["extend", "--space", str(space), "--h", str(h)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["values"][2] == pytest.approx(0.5)

    seg = tmp_path / "seg2.csv"
    seg.write_text(SEG_CSV)
    assert main(["probes", "--curve", str(seg), "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["centers"]) == 2
    assert main(["probes", "--curve", str(seg), "--n", "2", "--t", "0.5"]) == 2
    assert capsys.readouterr().err == "error: probes --t needs --window\n"
    assert main(["probes", "--curve", str(seg), "--n", "2", "--window", "0.25"]) == 2
    assert capsys.readouterr().err == "error: probes --window needs --t\n"
    assert_input_error(["probes", "--curve", str(seg), "--n", "2", "--t", "0.5",
                        "--window", "nan"], capsys)


def test_extend_term_that_overflows_exits_2(tmp_path, capsys):
    # Query 0 lies inside the box of a ring of support points 1e153 away
    # with values 1.7e308: their terms overflow, although the line's terms
    # hold the minimum.  A bound could skip the ring; where a term can
    # overflow every term is computed, so the call fails as the full scan
    # does.
    ring = 1e153 * np.column_stack([np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)])
    pts = np.vstack([[[0.0, 0.0]], np.column_stack([np.arange(1.0, 9.0), np.zeros(8)]), ring])
    space, h = tmp_path / "space.json", tmp_path / "h.json"
    space.write_text(json.dumps({"kind": "euclidean", "data": pts.tolist()}))
    h.write_text(json.dumps({"support": list(range(1, 17)), "values": [0.0] * 8 + [1.7e308] * 8,
                             "L": 1.7e155}))
    assert main(["extend", "--space", str(space), "--h", str(h), "--queries", "0"]) == 2
    assert capsys.readouterr().err == "error: input out of floating-point range: overflow encountered in add\n"


def test_probes_clamped_count_warns_in_one_line(lpoly, tmp_path, capsys):
    # The L-shaped curve has 3 distinct samples: --n 5 clamps to 3, with one
    # warning line and the artifact of --n 3.
    exact, clamped = tmp_path / "exact.json", tmp_path / "clamped.json"
    assert main(["probes", "--curve", lpoly, "--n", "3", "--out", str(exact)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["probes", "--curve", lpoly, "--n", "5", "--out", str(clamped)]) == 0
    assert capsys.readouterr().err == (
        "warning: requested 5 probes but the curve has 3 distinct samples; clamping\n")
    assert clamped.read_bytes() == exact.read_bytes()
    assert json.loads(exact.read_text())["centers"] == [0, 2, 1]


@pytest.mark.parametrize("support, bad", [([0, 2.9], "2.9"), ([0, True], "True")])
def test_extend_non_integer_support_id_exits_2(tmp_path, capsys, support, bad):
    # A fractional or boolean id names no point: reading 2.9 as 2 would
    # certify h(2) = 2.9 on a 3-point line.
    space = tmp_path / "line.json"
    space.write_text(json.dumps({"kind": "euclidean", "data": [[0.0], [1.0], [2.0]]}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"support": support, "values": [0.0, 2.9], "L": 1.0}))
    capsys.readouterr()
    assert main(["extend", "--space", str(space), "--h", str(h)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: point id {bad} is not an integer"]


def test_integral_float_ids_still_load(tmp_path, capsys):
    space = tmp_path / "graph.json"
    space.write_text(json.dumps({"kind": "graph", "n": 3, "data": [[0.0, 1.0, 1.0], [1, 2.0, 2.0]]}))
    assert main(["validate-metric", "--space", str(space)]) == 0
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"support": [0.0, 2.0], "values": [0.0, 3.0], "L": 1.0}))
    capsys.readouterr()
    assert main(["extend", "--space", str(space), "--h", str(h), "--queries", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == [1.0]


@pytest.mark.parametrize("role, doc", [
    ("space", {"kind": "euclidean", "data": [["0", "0"], ["3", "4"], [True, 1]]}),
    ("space", {"kind": "euclidean", "data": [[0, 0], [3, 4], [True, 1]]}),
    ("space", {"kind": "euclidean", "data": [[0, 0], [3, "4"], [1, 1]]}),
    ("space", {"kind": "matrix", "data": [[0, "1"], [1, 0]]}),
    ("space", {"kind": "matrix", "data": [[0, True], [True, 0]]}),
    ("space", {"kind": "graph", "n": 3, "data": [["0", 1, "2.5"], [1, 2, True]]}),
    ("space", {"kind": "graph", "n": 3, "data": [["0", 1, 1.0], [1, 2, 2.0]]}),
    ("space", {"kind": "graph", "n": 3, "data": [[0, 1, "2.5"], [1, 2, 2.0]]}),
    ("space", {"kind": "graph", "n": 3, "data": [[0, 1, 1.0], [1, 2, True]]}),
    ("sample", {"support": ["0", 1], "values": ["0.5", True], "L": "2"}),
    ("sample", {"support": ["0", 1], "values": [0.5, 1.0], "L": 2}),
    ("sample", {"support": [0, 1], "values": ["0.5", 1.0], "L": 2}),
    ("sample", {"support": [0, 1], "values": [0.5, True], "L": 2}),
    ("sample", {"support": [0, 1], "values": [0.5, 1.0], "L": "2"}),
    ("trace", [True, 1, 2, 3, 4, 5]),
    ("trace", [0, "1", 2, 3, 4, 5]),
    # JSON writes 10**400 as an integer literal, which no float holds.
    ("space", {"kind": "euclidean", "data": [[10**400, 0], [0, 0]]}),
    ("sample", {"support": [0, 1], "values": [0.5, 1.0], "L": 10**400}),
    ("trace", [0, 10**400, 0, 0, 0, 0]),
])
def test_json_number_fields_hold_json_numbers(tmp_path, capsys, role, doc):
    # float() and numpy read "2.5" and true as numbers; the JSON formats take
    # numbers only.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"kind": "euclidean", "data": [[0.0], [1.0], [2.0]]}))
    argv = {"space": ["validate-metric", "--space", str(path)],
            "sample": ["extend", "--space", str(line), "--h", str(path)],
            "trace": ["recover", "--values", str(path), "--epsilons", "0.5"]}[role]
    assert_input_error(argv, capsys)


def test_validate_metric_fractional_graph_edge_exits_2(tmp_path, capsys):
    space = tmp_path / "graph.json"
    space.write_text(json.dumps({"kind": "graph", "n": 2, "data": [[0, 1.9, 1.0]]}))
    capsys.readouterr()
    assert main(["validate-metric", "--space", str(space)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: graph edge [0, 1.9, 1.0]: point id 1.9 is not an integer"]


PASSED = '{\n  "passed": true,\n  "violations": []\n}\n'
DISCONNECTED = "error: graph is disconnected; shortest-path metric is not finite"
OVERFLOWS = "error: graph shortest-path distance overflows"


@pytest.mark.parametrize("doc, code, out, err", [
    ({"kind": "graph", "n": 4, "data": [[0, 1, 1.0], [2, 3, 2.0]]}, 2, "", DISCONNECTED),
    ({"kind": "graph", "n": 3, "data": [[0, 1, 1.0]]}, 2, "", DISCONNECTED),
    # Both weights are finite, their path sum is not.
    ({"kind": "graph", "n": 3, "data": [[0, 1, 1e308], [1, 2, 1e308]]}, 2, "", OVERFLOWS),
    # The weights sum past the largest float; the shortest paths do not.
    ({"kind": "graph", "n": 3, "data": [[0, 1, 6e307], [1, 2, 6e307], [0, 2, 1e308]]},
     0, PASSED, None),
    ({"kind": "graph", "n": 1, "data": []}, 0, PASSED, None),
    ({"kind": "graph", "n": 0, "data": []}, 2, "", "error: graph node count must be an integer >= 1, got 0"),
    ({"kind": "graph", "n": 2, "data": [[0, 0, 1.0], [0, 1, 2.0]]}, 0, PASSED, None),
    ({"kind": "graph", "n": 2, "data": [[1, 1, 1.0]]}, 2, "", DISCONNECTED),
    ({"kind": "graph", "points": ["a", "b", "c"], "data": [[0, 1, 1.0], [1, 2, 2.0]]},
     0, PASSED, None),
    ({"kind": "graph", "points": ["a", "b", "c"], "data": [[0, 1, 1.0]]}, 2, "", DISCONNECTED),
    ({"kind": "graph", "n": 2, "data": [[0, 2, 1.0]]}, 2, "",
     "error: edge (0,2) out of range for 2 nodes"),
    # An edge error is reported before connectivity.
    ({"kind": "graph", "n": 4, "data": [[0, 1, 1.0], [2, 9, 1.0]]}, 2, "",
     "error: edge (2,9) out of range for 4 nodes"),
    ({"kind": "graph", "n": 2, "data": [[0, 1.5, 1.0]]}, 2, "",
     "error: graph edge [0, 1.5, 1.0]: point id 1.5 is not an integer"),
    ({"kind": "graph", "n": 2, "data": [[0, 1, -1.0]]}, 2, "",
     "error: graph edge [0, 1, -1.0]: weight must be a finite number > 0, got -1.0"),
    ({"kind": "graph", "n": 2, "data": [[0, 1, "1.0"]]}, 2, "",
     "error: graph edge [0, 1, '1.0']: weight '1.0' is not a number"),
    ({"kind": "graph", "n": 2, "data": [[0, 1]]}, 2, "",
     "error: graph edge [0, 1] must be [i, j, weight]"),
    ({"kind": "graph", "n": 3, "data": [[0, 1, 5e-324], [1, 2, 5e-324]]}, 0, PASSED, None),
])
def test_validate_metric_graph_edge_cases(tmp_path, capsys, doc, code, out, err):
    # Graphs are checked by their edges and connectivity; each case gives
    # the exit code, output and error line that the shortest-path table gave.
    space = tmp_path / "graph.json"
    space.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate-metric", "--space", str(space)]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.splitlines() == ([] if err is None else [err])


def test_altwitness(tmp_path, capsys):
    space = tmp_path / "pts.json"
    space.write_text(json.dumps(
        {"kind": "euclidean", "data": [[0.0], [0.5], [1.2]]}))
    assert main(["altwitness", "--space", str(space), "--points", "0,1,2",
                 "--radii", "0.1,0.2,0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"]["variation_lower_bound"] == pytest.approx(0.8)


def test_forge(capsys):
    assert main(["forge", "--depth", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["level_bounds"][-1] >= 3.0
    assert_input_error(["forge", "--depth", "3", "--horizon", "-5"], capsys)
    assert main(["forge", "--depth", "3", "--horizon", "-5"]) == 2
    assert capsys.readouterr().err == "error: horizon must be an integer >= 0, got -5\n"


def test_forge_horizon_exhaustion_exits_1(capsys):
    assert main(["forge", "--depth", "8", "--horizon", "10"]) == 1
    assert "horizon" in capsys.readouterr().err


def test_check_disc_and_recover(tmp_path, capsys):
    t = np.linspace(0, 1, 201)
    step = tmp_path / "step.json"
    step.write_text(json.dumps([float(v) for v in (t >= 0.5)]))
    assert main(["check", "disc", "--values", str(step),
                 "--epsilon", "0.5", "--delta", "0.1"]) == 1

    smooth = tmp_path / "smooth.json"
    smooth.write_text(json.dumps([float(v) for v in t]))
    capsys.readouterr()
    assert main(["check", "disc", "--values", str(smooth),
                 "--epsilon", "0.5", "--delta", "0.1"]) == 0

    corrupted = t.copy()
    corrupted[50] += 3.0
    vals = tmp_path / "corrupt.json"
    vals.write_text(json.dumps([float(v) for v in corrupted]))
    capsys.readouterr()
    assert main(["recover", "--values", str(vals), "--epsilons", "0.5,0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"]
    assert doc["modified_fraction"] == pytest.approx(1 / 201)

    assert main(["recover", "--values", str(step), "--epsilons", "0.5,0.25"]) == 1

    # NaN or inf scales are input errors, never a pass.
    disc = ["check", "disc", "--values", str(smooth)]
    for flags in (["--epsilon", "nan", "--delta", "0.01"], ["--epsilon", "0.5", "--delta", "nan"],
                  ["--epsilon", "inf", "--delta", "0.1"], ["--epsilon", "0.5", "--delta", "inf"],
                  ["--epsilon", "0.5", "--delta", "0.1", "--measure-tolerance", "inf"]):
        assert_input_error(disc + flags, capsys)
    assert_input_error(["recover", "--values", str(vals), "--epsilons", "nan"], capsys)


@pytest.mark.parametrize("text", ["[0.0, NaN, 1.0]", "0.0\nnan\n1.0\n", "[1.0, Infinity]",
                                  "[0.0, 1.0", "[[0.0], [1.0, 2.0]]", "[[1, 2], [3, 4]]",
                                  json.dumps([[i, i + 1] for i in range(6)]), "[true, false]"])
def test_bad_values_file_exits_2(tmp_path, capsys, text):
    vals = tmp_path / "bad.txt"
    vals.write_text(text)
    capsys.readouterr()
    assert main(["check", "disc", "--values", str(vals),
                 "--epsilon", "0.5", "--delta", "0.1"]) == 2
    assert main(["recover", "--values", str(vals), "--epsilons", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:6] for line in captured.err.splitlines()] == ["error:"] * 2


@pytest.mark.parametrize("doc", [{"kind": "matrix", "points": [0, 1]},
                                 {"kind": "euclidean"}, {"kind": "graph", "n": 2}])
def test_space_without_data_exits_2(tmp_path, lpoly, capsys, doc):
    space = tmp_path / "nodata.json"
    space.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate-metric", "--space", str(space)]) == 2
    assert main(["variation", "--curve", lpoly, "--space", str(space)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("'data'" in line for line in err)


@pytest.mark.parametrize("doc", MALFORMED_SPACES + [[[0, 1], [1, 0]],
                                                   {"kind": "banach", "data": [[0, 1], [1, 0]]}])
def test_malformed_space_exits_2(tmp_path, lpoly, capsys, doc):
    # validate-metric reads the same documents as every other command; a bare
    # table and an unknown kind are not among them.
    space = tmp_path / "bad.json"
    space.write_text(json.dumps(doc))
    assert_input_error(["validate-metric", "--space", str(space)], capsys)
    assert_input_error(["variation", "--curve", lpoly, "--space", str(space)], capsys)


def test_check_acp_accepts_large_p(tmp_path, capsys):
    # Step quotients of sqrt(t) reach 14; their 1000th powers overflow.
    sqrt = tmp_path / "sqrt.csv"
    sqrt.write_text("t,x1\n" + "".join(f"{t!r},{math.sqrt(t)!r}\n" for t in np.linspace(0.0, 1.0, 201).tolist()))
    assert main(["check", "acp", "--curve", str(sqrt), "--p", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and np.isfinite(json.loads(captured.out)["norm_estimate"])


def test_check_acp_and_luzin(seg, capsys):
    assert main(["check", "acp", "--curve", seg, "--p", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inconclusive"
    assert doc["norm_estimate"] == pytest.approx(1.0)

    assert main(["check", "luzin", "--curve", seg, "--null-set", "0.25:0.375",
                 "--delta", "0.05"]) == 0

    assert_input_error(["check", "acp", "--curve", seg, "--p", "nan"], capsys)
    for null_set, delta in (("nan:nan", "0.01"), ("0.25:0.375", "nan"),
                            ("0.25:0.375", "inf"), ("0.25:inf", "0.01"), ("0.5:0.5", "0.01")):
        assert_input_error(["check", "luzin", "--curve", seg, "--null-set", null_set,
                            "--delta", delta], capsys)


def _strict_json(text):
    """json.loads that rejects the bare constants NaN, Infinity and
    -Infinity, which strict JSON (RFC 8259) has no place for."""
    def reject(constant):
        raise ValueError(f"bare {constant} in a JSON artifact")
    return json.loads(text, parse_constant=reject)


def test_non_finite_numbers_are_strings_in_artifacts(seg, tmp_path, capsys):
    # content --delta inf and check acp --p inf write the flag back; the
    # artifact spells it as the string "inf", as the flag takes it.
    out = tmp_path / "content.json"
    assert main(["content", "--curve", seg, "--delta", "inf", "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["delta"] == "inf" and float(doc["delta"]) == np.inf and np.isfinite(doc["content"])
    capsys.readouterr()
    assert main(["check", "acp", "--curve", seg, "--p", "inf"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["p"] == "inf" and doc["verdict"] == "inconclusive"
    assert cli._strict({"a": [-np.inf, np.nan, 1.5, (2, np.float64(np.inf))], "b": "inf"}) == \
        {"a": ["-inf", "nan", 1.5, [2, "inf"]], "b": "inf"}


def test_report_rows_are_strict_json(seg, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps([{"argv": ["check", "acp", "--curve", seg, "--p", "inf"]},
                                  {"argv": ["content", "--curve", seg, "--delta", "inf"]}]))
    assert main(["report", "--bundle", str(bundle), "--out-prefix", str(tmp_path / "b")]) == 0
    rows = [_strict_json(line) for line in (tmp_path / "b.jsonl").read_text().splitlines()]
    assert sorted(row["verdict"] for row in rows) == ["inconclusive", "pass"]


def test_check_luzin_null_set_with_negative_times(tmp_path, capsys):
    curve = tmp_path / "centered.csv"
    curve.write_text("t,x1\n" + "".join(f"{t},{t + 1}\n" for t in (-1, -0.5, 0, 0.5, 1)))
    outputs = []
    for argv in (["--null-set", "-0.5:0.5"], ["--null-set=-0.5:0.5"]):
        assert main(["check", "luzin", "--curve", str(curve), *argv, "--delta", "0.1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert doc["context"]["null_set_samples"] == 3 and doc["context"]["set_length"] == 1.0
    assert main(["check", "luzin", "--curve", str(curve), "--null-set", "-1:-0.5,0.5:1",
                 "--delta", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["context"]["null_set_samples"] == 4
    # A flag in the value's place is still a missing value.
    assert_input_error(["check", "luzin", "--curve", str(curve), "--null-set",
                        "--delta", "0.1"], capsys)


def test_sawtooth_on_distinct_points_at_distance_zero_exits_2(tmp_path, capsys):
    # 1e-200 squared underflows: the first two points are distinct at distance 0.
    curve = tmp_path / "tiny.csv"
    curve.write_text("t,x1,x2\n0,0,0\n0.5,1e-200,0\n1,1,1\n")
    assert_input_error(["sawtooth", "--curve", str(curve), "--tooth", "0.1"], capsys)
    assert main(["sawtooth", "--curve", str(curve), "--tooth", "0.1"]) == 2
    assert "points 0 and 1 are at distance 0" in capsys.readouterr().err


def test_probes_on_distinct_points_at_distance_zero_exits_2(tmp_path, capsys):
    # The first and last samples are distinct points at distance 0; a third
    # probe would repeat the first center.
    curve = tmp_path / "tiny.csv"
    curve.write_text("t,x1,x2\n0,0,0\n0.5,1,1\n1,1e-200,0\n")
    assert main(["probes", "--curve", str(curve), "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["centers"] == [0, 2]
    assert_input_error(["probes", "--curve", str(curve), "--n", "3"], capsys)
    assert main(["probes", "--curve", str(curve), "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: distinct points 0 and 1 are at distance 0\n"


def test_check_missing_required_flag_exits_2(seg, capsys):
    # Missing required flags, and flags that belong to another kind.
    for argv, flag in ((["luzin", "--curve", seg, "--delta", "0.1"], "--null-set"),
                       (["area", "--curve", seg], "--values"),
                       (["varint", "--curve", seg, "--p", "2"], "--p"),
                       (["disc", "--values", seg, "--epsilon", "1", "--delta", "0.1",
                         "--curve", seg], "--curve"),
                       ([], "kind")):
        assert main(["check", *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]


@pytest.mark.parametrize("text", ["t,x1\n0,0\n1\n", "t,point_id\n0,0\n1\n",
                                  "t,x1\n0,0\n1,a\n", "t\n0\n1\n", "",
                                  # a non-finite time; a chord whose square overflows
                                  "t,x1\n-inf,0\n1,1\n", "t,x1\n0,0\n1,1e200\n"])
def test_malformed_curve_csv_exits_2(tmp_path, capsys, text):
    curve = tmp_path / "bad.csv"
    curve.write_text(text)
    space = tmp_path / "line.json"
    space.write_text(json.dumps({"kind": "euclidean", "data": [[0.0], [1.0]]}))
    assert main(["variation", "--curve", str(curve), "--space", str(space)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line[:6] for line in captured.err.splitlines()] == ["error:"]


def test_crlf_curve_file_loads_like_lf(tmp_path):
    curves = []
    for name, newline in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
        path = tmp_path / name
        path.write_bytes(L_CSV.replace("\n", newline).encode())
        curves.append(cli._load_curve(str(path), None))
    lf, crlf = curves
    assert np.array_equal(lf.times, crlf.times) and np.array_equal(lf.samples, crlf.samples)
    assert np.array_equal(lf.space.coords, crlf.space.coords)


def test_identity_checks_say_they_are_bookkeeping(seg, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 8 for i in range(9)], "L": 1.0}))
    out = tmp_path / "r.json"
    for kind, flag in (("area", True), ("varint", True), ("contraction", True), ("luzin", None)):
        extra = {"area": ["--h", str(h)], "contraction": ["--h", str(h)],
                 "luzin": ["--null-set", "0.25:0.375", "--delta", "0.05"]}.get(kind, [])
        assert main(["check", kind, "--curve", seg, *extra, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["context"].get("bookkeeping") is flag, kind


def test_tolerance_env_override(seg, tmp_path, monkeypatch, capsys):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 8 for i in range(9)], "L": 1.0}))
    out = tmp_path / "r.json"
    monkeypatch.setenv("CURVE_LAB_TOLERANCE", "1e6")
    argv = ["check", "contraction", "--curve", seg, "--h", str(h)]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e6
    # A report row carries the same overridden tolerance.
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps([{"argv": argv}]))
    assert main(["report", "--bundle", str(bundle), "--out-prefix", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s.jsonl").read_text())["tolerance"] == 1e6
    # An infinite tolerance would pass anything.
    for raw, err in (("inf", "must be a finite number >= 0, got inf"), ("nan", "nan is not a number"),
                     ("-1", "must be a finite number >= 0, got -1.0")):
        monkeypatch.setenv("CURVE_LAB_TOLERANCE", raw)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: CURVE_LAB_TOLERANCE {err}\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_measure_tolerance_out_of_range_is_named(tmp_path, capsys, tol):
    vals = tmp_path / "v.json"
    vals.write_text(json.dumps([0.0] * 6))
    capsys.readouterr()
    assert main(["check", "disc", "--values", str(vals), "--epsilon", "0.5", "--delta", "0.1",
                 "--measure-tolerance", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --measure-tolerance ") and captured.err.count("\n") == 1


class TestReportBundle:
    def write_inputs(self, tmp_path):
        seg = tmp_path / "seg.csv"
        seg.write_text(SEG_CSV)
        h = tmp_path / "h.json"
        h.write_text(json.dumps(
            {"support": list(range(9)), "values": [i / 8 for i in range(9)],
             "L": 1.0}))
        return str(seg), str(h)

    def test_empty_bundle(self, tmp_path):
        bundle = tmp_path / "bundle.json"
        bundle.write_text("[]")
        prefix = str(tmp_path / "summary")
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 0
        assert (tmp_path / "summary.jsonl").read_text() == ""
        assert "name" in (tmp_path / "summary.csv").read_text()

    def test_three_passing_checks(self, tmp_path):
        seg, h = self.write_inputs(tmp_path)
        configs = [
            {"argv": ["check", "contraction", "--curve", seg, "--h", h]},
            {"argv": ["check", "varint", "--curve", seg]},
            {"argv": ["check", "luzin", "--curve", seg,
                      "--null-set", "0.25:0.375", "--delta", "0.05"]},
            # A CSV-producing subcommand runs in a bundle too.
            {"argv": ["reparam", "--curve", seg]},
        ]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "summary.jsonl").read_text().strip().splitlines()]
        assert len(rows) == 4
        assert all(row["verdict"] == "pass" for row in rows)
        assert f"reparam --curve {seg}" in {row["name"] for row in rows}

    def test_mixed_results_failures_first(self, tmp_path):
        seg, h = self.write_inputs(tmp_path)
        t = np.linspace(0, 1, 201)
        step = tmp_path / "step.json"
        step.write_text(json.dumps([float(v) for v in (t >= 0.5)]))
        configs = [
            {"argv": ["check", "varint", "--curve", seg]},
            {"argv": ["check", "disc", "--values", str(step),
                      "--epsilon", "0.5", "--delta", "0.1"]},
        ]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 1
        lines = (tmp_path / "summary.jsonl").read_text().strip().splitlines()
        assert json.loads(lines[0])["verdict"] == "fail"
        assert json.loads(lines[-1])["verdict"] == "pass"

    def test_deterministic_artifacts(self, tmp_path):
        seg, h = self.write_inputs(tmp_path)
        configs = [{"argv": ["check", "contraction", "--curve", seg, "--h", h]},
                   {"argv": ["check", "varint", "--curve", seg]}]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        main(["report", "--bundle", str(bundle), "--out-prefix", prefix])
        first = (tmp_path / "summary.jsonl").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        main(["report", "--bundle", str(bundle), "--out-prefix", prefix])
        second = (tmp_path / "summary.jsonl").read_bytes(), (tmp_path / "summary.csv").read_bytes()
        assert first == second

    def test_input_error_in_sub_run_exits_2_with_partial_results(self, tmp_path, capsys):
        seg, h = self.write_inputs(tmp_path)
        configs = [{"argv": ["check", "varint", "--curve", seg]},
                   {"argv": ["check", "varint", "--curve", "/missing.csv"]},
                   # A help request is an error row, and its text goes nowhere.
                   {"argv": ["variation", "--help"]}]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1:] == ["error: bundle entry 'variation --help' asks for help"]
        lines = (tmp_path / "summary.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        verdicts = [json.loads(line)["verdict"] for line in lines]
        assert sorted(verdicts) == ["error", "error", "pass"]

    def test_error_rows_carry_the_error(self, tmp_path, capsys):
        seg, h = self.write_inputs(tmp_path)
        missing = str(tmp_path / "missing.csv")
        configs = [{"argv": ["check", "varint", "--curve", seg]},
                   {"argv": ["check", "varint", "--curve", missing]},
                   {"argv": ["forge", "--depth", "8", "--horizon", "10"]}]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle), "--out-prefix", prefix]) == 2
        messages = [line.removeprefix("error: ") for line in capsys.readouterr().err.splitlines()]
        lines = (tmp_path / "summary.jsonl").read_text().splitlines()
        rows = {row["name"]: row for row in map(json.loads, lines)}
        assert rows[f"check varint --curve {missing}"]["verdict"] == "error"
        assert rows[f"check varint --curve {missing}"]["error"] == f"InputError: {messages[0]}"
        assert "missing.csv" in messages[0]
        assert rows["forge --depth 8 --horizon 10"]["verdict"] == "fail"
        assert rows["forge --depth 8 --horizon 10"]["error"] == f"HorizonError: {messages[1]}"
        assert "error" not in rows["variation_integral"]
        # The .csv keeps its columns and names no error.
        csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert csv_lines[0] == "name,digest,verdict,residual,tolerance"
        assert not any("Error" in line for line in csv_lines)


def test_readme_cli_lines_parse():
    """Every `curve-lab ...` line of README's CLI block parses (optional
    `[...]` groups and `# ...` comments stripped), and together they reach
    every handler, so README and parser agree on subcommands and required
    flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    parser = cli._build_parser()
    reached = set()
    for line in block.splitlines():
        line = re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]).strip()
        if line:
            tokens = shlex.split(line)
            assert tokens[0] == "curve-lab"
            args = parser.parse_args(tokens[1:])
            # The parser main builds for this argv alone reads it the same.
            assert cli._build_parser(tokens[1:]).parse_args(tokens[1:]) == args
            reached.add(args.func)
    handlers = {f for name, f in vars(cli).items() if name.startswith("_cmd_")}
    assert reached == handlers


def test_entry_point_subprocess(lpoly):
    proc = subprocess.run([sys.executable, "-m", "curve_lab.cli",
                           "variation", "--curve", lpoly],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_variation"] == 2.0


SCIPY_PROBE = """
import json, sys
from curve_lab.cli import main
loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
seen = {"import": loaded()}
seen["euclidean_exit"] = main(["validate-metric", "--space", sys.argv[1]])
seen["euclidean"] = loaded()
seen["graph_exit"] = main(["validate-metric", "--space", sys.argv[2]])
seen["graph"] = loaded()
sys.stderr.write(json.dumps(seen))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy computes shortest paths, which validate-metric does not need: it
    # checks a graph by its edges and connectivity, so neither call loads it.
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"kind": "euclidean", "data": [[0, 0], [3, 4], [1, 1]]}))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"kind": "graph", "n": 3, "data": [[0, 1, 1.0], [1, 2, 2.0]]}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(points), str(graph)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    seen = json.loads(proc.stderr)
    assert seen == {"import": [], "euclidean_exit": 0, "euclidean": [], "graph_exit": 0,
                    "graph": []}
    assert proc.stdout.count('"passed": true') == 2


LOAD_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import curve_lab
else:
    from curve_lab.cli import main
    main(argv)
sys.stderr.write(json.dumps(sorted(m for m in sys.modules if m.startswith("curve_lab.") or m == "numpy.ma")))
"""


def loaded_modules(argv) -> set:
    """The curve_lab submodules, and numpy.ma if loaded, that a fresh
    interpreter holds after ``import curve_lab`` (argv None) or after
    running the CLI on argv."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, json.dumps(argv)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    return {m.removeprefix("curve_lab.") for m in json.loads(proc.stderr)}


def test_commands_load_only_the_modules_they_use(tmp_path, lpoly):
    # `import curve_lab` is lazy, and each command imports what it calls.
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"kind": "euclidean", "data": [[0, 0], [3, 4], [1, 1]]}))
    assert loaded_modules(None) <= {"errors"}
    validate = loaded_modules(["validate-metric", "--space", str(points)])
    assert "metric" in validate
    assert not validate & {"curves", "lipschitz", "witnesses", "verify"}
    variation = loaded_modules(["variation", "--curve", lpoly])
    assert {"metric", "curves"} <= variation
    assert not variation & {"lipschitz", "witnesses", "verify"}
    # verify and witnesses import curves and lipschitz where they call them.
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([0.0] * 6 + [1.0] * 6))
    for argv in (["recover", "--values", str(trace), "--epsilons", "0.5"],
                 ["check", "disc", "--values", str(trace), "--epsilon", "0.5", "--delta", "0.1"]):
        loaded = loaded_modules(argv)
        assert "verify" in loaded and not loaded & {"metric", "curves", "lipschitz"}, argv
    forge = loaded_modules(["forge", "--depth", "3"])
    assert "witnesses" in forge and not forge & {"metric", "curves", "lipschitz", "verify"}
    varint = loaded_modules(["check", "varint", "--curve", lpoly])
    assert {"curves", "verify"} <= varint and "lipschitz" not in varint


def test_commands_load_no_numpy_ma(tmp_path):
    # Under numpy 2.4, np.unique without an index output imports numpy.ma,
    # 10-20 ms of start-up. check area --values calls no lipschitz name.
    space, curve = tmp_path / "space.json", tmp_path / "curve.csv"
    space.write_text(json.dumps({"kind": "euclidean", "data": [[0, 0], [3, 4], [1, 1]]}))
    curve.write_text("t,point_id\n0,0\n0.5,1\n1,2\n")
    h, values = tmp_path / "h.json", tmp_path / "values.txt"
    h.write_text(json.dumps({"support": [0, 1], "values": [0.0, 5.0], "L": 1.0}))
    values.write_text("0.0\n-0.0\n2.5\n")
    area = ["check", "area", "--curve", str(curve), "--space", str(space)]
    altwitness = ["altwitness", "--space", str(space), "--points", "0,1", "--radii", "1,1"]
    for argv, needed, unused in ((area + ["--h", str(h)], {"lipschitz", "verify"}, {"numpy.ma"}),
                                 (area + ["--values", str(values)], {"verify"}, {"lipschitz", "numpy.ma"}),
                                 (altwitness, {"lipschitz", "witnesses"}, {"numpy.ma"})):
        assert main(argv) == 0, argv
        loaded = loaded_modules(argv)
        assert needed <= loaded and not loaded & unused, argv
