"""One cli-batch cycle: the curve-lab calls, their expected exit codes and
their output checks.

The checks recompute each answer from the generated coordinates with plain
numpy, independently of curve_lab.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen

REPORT_ENTRIES = 20
RTOL = 1e-9
# The checked calls of a cycle, in order; each gets cli.<name>.* metrics.
CALL_NAMES = ("variation", "speed", "reparam", "content", "extend", "probes", "sawtooth",
              "check-contraction", "check-area", "check-luzin", "check-varint",
              "validate-metric", "validate-graph", "validate-planted", "recover", "forge",
              "report")


@dataclass(frozen=True)
class Call:
    name: str                # metric name: cli.<name>.wall_s / .inproc_s
    argv: list[str]          # arguments after `python -m curve_lab.cli`
    out: Optional[Path]      # the artifact the call writes (report: its --out-prefix)
    check: Callable          # check(call, exit_code, stderr, ref) -> error or None
    probe: bool = False      # contract probe: a known defect is not an op failure


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Reference:
    """Independent answers for the generated cli-batch inputs."""

    def __init__(self, doc: dict):
        self.t = np.asarray(doc["t"])
        self.xy = np.asarray(doc["xy"])
        self.sample = doc["sample"]
        self.smooth = np.asarray(doc["smooth"])
        self.spikes = np.asarray(doc["spikes"], dtype=int)
        self.planted_pair = tuple(doc["planted_pair"])
        self.tv, self.wave = gen.arc_triangle_wave(self.xy)
        self.dmat = gen.distance_matrix(self.xy)

    def speed(self, t: float, window: float) -> float:
        i1 = int(np.argmin(np.abs(self.t - (t - window))))
        i2 = int(np.argmin(np.abs(self.t - (t + window))))
        return float(self.dmat[i1, i2] / (self.t[i2] - self.t[i1]))

    def lip(self, values: np.ndarray) -> float:
        iu = np.triu_indices(len(values), k=1)
        return float(np.max(np.abs(values[:, None] - values[None, :])[iu] / self.dmat[iu]))


def _load(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _verdict_pass(call, code, _err, _ref):
    doc = _load(call.out)
    if code != 0 or doc.get("verdict") != "pass":
        return f"exit {code}, verdict {doc.get('verdict')!r}"
    return None


def _check_variation(call, code, _err, ref):
    tv = _load(call.out)["total_variation"]
    return None if code == 0 and _close(tv, ref.tv) else f"total_variation {tv!r} != chord sum {ref.tv!r}"


def _check_speed(call, code, _err, ref):
    v = _load(call.out)["speed"]
    want = ref.speed(0.5, 0.01)
    return None if code == 0 and _close(v, want) else f"speed {v!r} != {want!r}"


def _check_reparam(call, code, _err, ref):
    with open(call.out, newline="") as fh:
        rows = list(csv.reader(fh))
    last = float(rows[-1][0])
    if code != 0 or rows[0] != ["t", "point_id"] or len(rows) != len(ref.t) + 1:
        return f"exit {code}, {len(rows)} rows"
    return None if _close(last, ref.tv) else f"final arc time {last!r} != {ref.tv!r}"


def _check_content(call, code, _err, ref):
    v = _load(call.out)["content"]
    bound = ref.tv + float(np.max(ref.dmat))
    return None if code == 0 and 0.0 < v <= bound else f"content {v!r} outside (0, {bound!r}]"


def _check_extend(call, code, _err, ref):
    doc = _load(call.out)
    v = np.asarray(doc["values"])
    sup = np.asarray(ref.sample["support"])
    if code != 0 or len(v) != len(ref.t):
        return f"exit {code}, {len(v)} values"
    if not np.allclose(v[sup], ref.sample["values"], rtol=RTOL, atol=0.0):
        return "extension differs from the sample on its support"
    lip = ref.lip(v)
    return None if lip <= 1.0 + RTOL else f"extension is {lip!r}-Lipschitz, declared 1.0"


def _check_probes(call, code, _err, ref):
    doc = _load(call.out)
    centers = doc["centers"]
    # Inline coordinates are renumbered in sorted row order; the first probe
    # is the first sample in time.
    first = int(np.flatnonzero(np.lexsort((ref.xy[:, 1], ref.xy[:, 0])) == 0)[0])
    if code != 0 or len(set(centers)) != 8 or centers[0] != first:
        return f"exit {code}, centers {centers}"
    speed = ref.speed(0.5, 0.02)
    return None if doc["speed"] <= speed * (1 + RTOL) else f"probe speed {doc['speed']!r} > metric speed {speed!r}"


def _check_sawtooth(call, code, _err, ref):
    doc = _load(call.out)
    certs = doc["certificates"]
    values = np.asarray(doc["sample"]["values"])
    if code != 0 or not np.allclose(values, ref.wave, rtol=0.0, atol=RTOL):
        return f"exit {code}, sawtooth values differ from the triangle wave of arc length"
    lip = ref.lip(values)
    if not _close(certs["lip_constant"], lip):
        return f"lip_constant {certs['lip_constant']!r} != brute force {lip!r}"
    return None if _close(certs["total_variation"], ref.tv) else "total_variation mismatch"


def _check_validate(call, code, _err, _ref):
    doc = _load(call.out)
    return None if code == 0 and doc["passed"] and not doc["violations"] else f"exit {code}, {doc}"


def _check_planted(call, code, _err, ref):
    """The planted violation, and nothing else, reported with triangle
    witnesses; only the planted pair's distance differs from ``ref.dmat``."""
    doc = _load(call.out)
    found = doc["violations"]
    tri = [v["witness"] for v in found if v["axiom"] == "triangle"]
    if code != 1 or doc["passed"] or not tri or len(tri) != len(found):
        return f"exit {code}, planted violation not reported alone: {found[:3]}"
    i, k = ref.planted_pair
    raised = float(_load(call.argv[call.argv.index("--space") + 1])["data"][i][k])
    for a, c, j in tri:
        if {a, c} != {i, k} or not raised > ref.dmat[a, j] + ref.dmat[j, c]:
            return f"triangle witness {(a, c, j)} does not show the planted violation"
    return None


def _check_recover(call, code, _err, ref):
    doc = _load(call.out)
    if code != 0 or not doc.get("found"):
        return f"exit {code}, found {doc.get('found')!r}"
    v = np.asarray(doc["values"])
    err = float(np.max(np.abs(v[ref.spikes] - ref.smooth[ref.spikes])))
    return None if err < 0.5 else f"spikes not removed (max error {err!r})"


def _check_forge(call, code, _err, _ref):
    bounds = _load(call.out)["level_bounds"]
    ok = code == 0 and len(bounds) == 5 and all(b >= j for j, b in enumerate(bounds, 1))
    return None if ok else f"exit {code}, level bounds {bounds}"


def _check_report(call, code, _err, _ref):
    rows = [json.loads(line) for line in Path(f"{call.out}.jsonl").read_text().splitlines()]
    bad = [r for r in rows if r["verdict"] != "pass"]
    if code != 0 or len(rows) != REPORT_ENTRIES or bad:
        return f"exit {code}, {len(rows)} rows, {len(bad)} not passing"
    return None


def _probe_exit2(call, code, err, _ref):
    lines = err.strip().splitlines()
    if code == 2 and len(lines) == 1 and lines[0].startswith("error:"):
        return None
    return f"exit {code} with {len(lines)} stderr line(s), want exit 2 and one 'error:' line"


def _probe_nan(call, code, _err, _ref):
    verdict = _load(call.out).get("verdict") if call.out.exists() else None
    return f"exit {code}, verdict 'pass' on a NaN trace" if verdict == "pass" else None


def cycle(d: Path, seed: int) -> list[Call]:
    """The calls of one cycle, with input files in ``d``; the seed orders
    the report bundle."""
    xy, ids, space = str(d / "curve_xy.csv"), str(d / "curve_ids.csv"), str(d / "space.json")
    o = lambda name: d / f"out-{name}.json"  # noqa: E731
    specs = [
        ("variation", ["variation", "--curve", xy], _check_variation),
        ("speed", ["speed", "--curve", xy, "--t", "0.5", "--window", "0.01"], _check_speed),
        ("reparam", ["reparam", "--curve", xy], _check_reparam),
        ("content", ["content", "--curve", xy, "--delta", str(gen.DELTA)], _check_content),
        ("extend", ["extend", "--space", space, "--h", str(d / "sample.json")], _check_extend),
        ("probes", ["probes", "--curve", xy, "--n", "8", "--t", "0.5", "--window", "0.02"],
         _check_probes),
        ("sawtooth", ["sawtooth", "--curve", xy, "--tooth", str(gen.TOOTH)], _check_sawtooth),
        ("check-contraction", ["check", "contraction", "--curve", ids, "--space", space,
                               "--h", str(d / "sample.json")], _verdict_pass),
        ("check-area", ["check", "area", "--curve", ids, "--space", space,
                        "--h", str(d / "sample.json")], _verdict_pass),
        ("check-luzin", ["check", "luzin", "--curve", xy, "--null-set",
                         "{}:{}".format(*gen.NULL_SET), "--delta", str(gen.DELTA)], _verdict_pass),
        ("check-varint", ["check", "varint", "--curve", xy], _verdict_pass),
        ("validate-metric", ["validate-metric", "--space", space], _check_validate),
        ("validate-graph", ["validate-metric", "--space", str(d / "graph.json")], _check_validate),
        ("validate-planted", ["validate-metric", "--space", str(d / "planted.json")],
         _check_planted),
        ("recover", ["recover", "--values", str(d / "trace.json"), "--epsilons",
                     ",".join(map(str, gen.EPSILONS)), "--window", str(gen.RECOVER_WINDOW)],
         _check_recover),
        ("forge", ["forge", "--depth", "6"], _check_forge),
    ]
    calls = [Call(name, argv + ["--out", str(o(name))], o(name), check)
             for name, argv, check in specs]
    # The bundle holds every call but reparam and the graph and planted
    # validations once, plus a fixed set of repeats, so its cost does not
    # depend on the seed; the seed only orders it.  report reads each
    # artifact as JSON and aborts on reparam's CSV, and an entry that exits 1
    # (the planted violation) fails the bundle.
    repeats = ["check-contraction", "check-area", "check-luzin", "check-varint",
               "variation", "content", "speed"]
    once = [name for name, _, _ in specs
            if name not in ("reparam", "validate-graph", "validate-planted")]
    entries = [argv for name, argv, _ in specs if name in once]
    entries += [argv for name, argv, _ in specs if name in repeats]
    order = np.random.default_rng([seed, 1]).permutation(len(entries))
    (d / "bundle.json").write_text(json.dumps([{"argv": entries[i]} for i in order]))
    calls.append(Call("report", ["report", "--bundle", str(d / "bundle.json"),
                                 "--out-prefix", str(d / "out-report")],
                      d / "out-report", _check_report))
    calls.append(Call("probe-missing-data", ["validate-metric", "--space", str(d / "nodata.json")],
                      None, _probe_exit2, probe=True))
    calls.append(Call("probe-nan-disc", ["check", "disc", "--values", str(d / "nan_trace.txt"),
                                         "--epsilon", "0.5", "--delta", "0.01",
                                         "--out", str(o("probe-nan-disc"))],
                      o("probe-nan-disc"), _probe_nan, probe=True))
    return calls


def clear(call: Call) -> None:
    """Remove the call's artifacts from an earlier cycle."""
    if call.out is not None:
        for path in (call.out, Path(f"{call.out}.jsonl"), Path(f"{call.out}.csv")):
            path.unlink(missing_ok=True)


def verify(call: Call, code: int, stderr: str, ref: Reference) -> Optional[str]:
    """Run the call's check; an unreadable artifact is a failure too."""
    try:
        return call.check(call, code, stderr, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"exit {code}, unreadable output: {exc!r}"
