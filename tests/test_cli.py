import json
import subprocess
import sys

import numpy as np
import pytest

from curve_lab.cli import main

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


def test_variation_prints_value(lpoly, capsys):
    assert main(["variation", "--curve", lpoly]) == 0
    assert capsys.readouterr().out.strip() == "2.0"


def test_sawtooth_witness_artifact(seg, tmp_path):
    out = tmp_path / "w.json"
    assert main(["sawtooth", "--curve", seg, "--tooth", "0.25",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificates"]["composed_variation"] >= 1.0 - 1e-9
    assert doc["certificates"]["sup_abs"] <= 0.25

def test_check_contraction_fake_l_exits_2(seg, tmp_path, capsys):
    fake = tmp_path / "fake.json"
    # Values with slope 2 but declared L = 1: inconsistent sample data.
    fake.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 4 for i in range(9)], "L": 1.0}))
    assert main(["check", "contraction", "--curve", seg, "--h", str(fake)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_contraction_passes(seg, tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 8 for i in range(9)], "L": 1.0}))
    out = tmp_path / "report.json"
    assert main(["check", "contraction", "--curve", seg, "--h", str(h),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_missing_file_exits_2(capsys):
    assert main(["variation", "--curve", "/nonexistent/c.csv"]) == 2
    assert "error" in capsys.readouterr().err


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


def test_speed_and_content(seg, capsys):
    assert main(["speed", "--curve", seg, "--t", "0.5", "--window", "0.25"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)
    assert main(["content", "--curve", seg, "--delta", "0.25"]) == 0
    assert 0.8 <= float(capsys.readouterr().out) <= 1.2


def test_reparam_roundtrip(lpoly, tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["reparam", "--curve", lpoly, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,point_id"
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == [0.0, 1.0, 2.0]


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


@pytest.mark.parametrize("text", ["[0.0, NaN, 1.0]", "0.0\nnan\n1.0\n", "[1.0, Infinity]",
                                  "[0.0, 1.0", "[[0.0], [1.0, 2.0]]"])
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


def test_check_acp_and_luzin(seg, capsys):
    assert main(["check", "acp", "--curve", seg, "--p", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inconclusive"
    assert doc["norm_estimate"] == pytest.approx(1.0)

    assert main(["check", "luzin", "--curve", seg, "--null-set", "0.25:0.375",
                 "--delta", "0.05"]) == 0


def test_check_missing_required_flag_exits_2(seg, capsys):
    assert main(["check", "luzin", "--curve", seg, "--delta", "0.1"]) == 2
    assert "--null-set" in capsys.readouterr().err


def test_tolerance_env_override(seg, tmp_path, monkeypatch):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(
        {"support": list(range(9)), "values": [i / 8 for i in range(9)], "L": 1.0}))
    out = tmp_path / "r.json"
    monkeypatch.setenv("CURVE_LAB_TOLERANCE", "1e6")
    assert main(["check", "contraction", "--curve", seg, "--h", str(h),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e6


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
        ]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 0
        lines = (tmp_path / "summary.jsonl").read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

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
                   {"argv": ["check", "varint", "--curve", "/missing.csv"]}]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(configs))
        prefix = str(tmp_path / "summary")
        assert main(["report", "--bundle", str(bundle),
                     "--out-prefix", prefix]) == 2
        lines = (tmp_path / "summary.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        verdicts = {json.loads(line)["verdict"] for line in lines}
        assert verdicts == {"pass", "error"}


def test_entry_point_subprocess(lpoly):
    proc = subprocess.run([sys.executable, "-m", "curve_lab.cli",
                           "variation", "--curve", lpoly],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.0"
