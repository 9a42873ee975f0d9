"""Seeded input generators for the perfbench workloads.

Everything the program under test receives is made here from the run's
seed and written to files; the program sees only those files.  The same
seed gives byte-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# A planar spiral makes three turns; consecutive samples are closer than
# samples on neighbouring turns, so kNN graphs follow the curve.
TURNS = 3.0
TOOTH = 0.05
DELTA = 0.01
NULL_SET = (0.4, 0.6)
EPSILONS = (0.5, 0.25)
SPIKE_HEIGHT = 3.0
RECOVER_WINDOW = 5
KNN = 6


def spiral(rng: np.random.Generator, n: int, scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Times on [0, 1] and distinct points of a spiral with random phase and
    scale (unless given); radius grows from 0.2 to 1.2 times the scale."""
    phase = rng.uniform(0.0, 2.0 * np.pi)
    if scale is None:
        scale = rng.uniform(0.8, 1.2)
    t = np.linspace(0.0, 1.0, n)
    theta = phase + 2.0 * np.pi * TURNS * t
    r = scale * (0.2 + t)
    return t, np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def spiked_trace(rng: np.random.Generator, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A smooth trace, the same trace with isolated spikes, and the spike
    positions.  Spikes sit at least four recovery windows apart, so each is
    a lone deviant in its window."""
    smooth = np.sin(2.0 * np.pi * t + rng.uniform(0.0, 2.0 * np.pi))
    slots = np.arange(2 * RECOVER_WINDOW, len(t) - 2 * RECOVER_WINDOW, 4 * RECOVER_WINDOW)
    spikes = np.sort(rng.choice(slots, size=max(1, len(slots) // 4), replace=False))
    spiked = smooth.copy()
    spiked[spikes] += SPIKE_HEIGHT * rng.choice([-1.0, 1.0], size=len(spikes))
    return smooth, spiked, spikes


def distance_matrix(xy: np.ndarray) -> np.ndarray:
    diff = xy[:, None, :] - xy[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def arc_triangle_wave(xy: np.ndarray) -> tuple[float, np.ndarray]:
    """Reference for sawtooth witnesses: the polyline's length and the
    triangle wave of its arc-length coordinate at every vertex."""
    chords = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    r = np.mod(np.concatenate([[0.0], np.cumsum(chords)]), 2.0 * TOOTH)
    return float(np.sum(chords)), np.where(r <= TOOTH, r, 2.0 * TOOTH - r)


def knn_edges(xy: np.ndarray, k: int) -> list[list]:
    """Edges to the k nearest neighbours of every point plus the curve's own
    consecutive pairs (which keep the graph connected), weighted by
    Euclidean length."""
    d = distance_matrix(xy)
    n = len(xy)
    pairs = {(i, i + 1) for i in range(n - 1)}
    for i, row in enumerate(np.argsort(d, axis=1)[:, 1:k + 1]):
        pairs.update((min(i, int(j)), max(i, int(j))) for j in row)
    return [[i, j, float(d[i, j])] for i, j in sorted(pairs)]


def planted_violation(d: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, tuple[int, int]]:
    """Copy of a metric with dist(n-3, n-1) raised above the path through
    n-2, so the triangle inequality fails only for that pair."""
    n = len(d)
    i, k = n - 3, n - 1
    bad = d.copy()
    bad[i, k] = bad[k, i] = d[i, n - 2] + d[n - 2, k] + rng.uniform(0.05, 0.15)
    return bad, (i, k)


def distance_sample(rng: np.random.Generator, xy: np.ndarray) -> dict:
    """Half-support sample of x -> |x - c| (1-Lipschitz) for a random c."""
    support = np.arange(0, len(xy), 2)
    c = rng.uniform(-1.0, 1.0, size=2)
    values = np.linalg.norm(xy[support] - c, axis=1)
    return {"support": support.tolist(), "values": values.tolist(), "L": 1.0}


def scales(rng: np.random.Generator, count: int) -> np.ndarray:
    """Spiral scales evenly spread over [0.8, 1.2] in random order.  Scale
    sets how many samples fall within a covering radius, so a stratified set
    gives every seed the same mix of op costs."""
    return rng.permutation(np.linspace(0.8, 1.2, count))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _curve_rows(t: np.ndarray, cols) -> str:
    """CSV body with exact float round trips; integer columns stay integers."""
    cols = [c.tolist() for c in cols]
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(t.tolist(), *cols))


def write_kernel_inputs(directory: Path, rng: np.random.Generator, n: int, count: int) -> None:
    """``count`` spirals with a distance sample and a spiked trace each, for
    the euclidean-kernels workload."""
    docs = []
    for scale in scales(rng, count):
        t, xy = spiral(rng, n, scale)
        smooth, spiked, spikes = spiked_trace(rng, t)
        docs.append({"t": t.tolist(), "xy": xy.tolist(), "sample": distance_sample(rng, xy),
                     "smooth": smooth.tolist(), "trace": spiked.tolist(),
                     "spikes": spikes.tolist()})
    _write_json(directory / "kernels.json", docs)


def write_cli_inputs(directory: Path, rng: np.random.Generator, n: int) -> dict:
    """Files for one cli-batch cycle; returns the reference data the output
    checks need.

    ``curve_ids.csv`` (``t,point_id`` plus ``space.json``) serves the calls
    that pair the curve with a Lipschitz sample: an inline-coordinate CSV
    renumbers points in sorted coordinate order, so sample ids would not
    line up with the curve.  The other curve calls read ``curve_xy.csv``.
    ``graph.json`` is a kNN graph-kind space of the same points and
    ``planted.json`` their distance matrix with one planted triangle
    violation.
    """
    t, xy = spiral(rng, n)
    smooth, spiked, spikes = spiked_trace(rng, t)
    sample = distance_sample(rng, xy)
    _write_json(directory / "space.json", {"kind": "euclidean", "data": xy.tolist()})
    (directory / "curve_ids.csv").write_text("t,point_id\n" + _curve_rows(t, [np.arange(n)]))
    (directory / "curve_xy.csv").write_text("t,x1,x2\n" + _curve_rows(t, [xy[:, 0], xy[:, 1]]))
    _write_json(directory / "sample.json", sample)
    _write_json(directory / "trace.json", spiked.tolist())
    _write_json(directory / "graph.json", {"kind": "graph", "n": n, "data": knn_edges(xy, KNN)})
    bad, pair = planted_violation(distance_matrix(xy), rng)
    _write_json(directory / "planted.json", {"kind": "matrix", "data": bad.tolist()})
    # Contract probes: a space file without the documented 'data' key, and
    # a trace with a NaN in it.
    _write_json(directory / "nodata.json", {"kind": "matrix", "points": list(range(4))})
    nan_trace = smooth.copy()
    nan_trace[n // 2] = np.nan
    (directory / "nan_trace.txt").write_text("".join(f"{v!r}\n" for v in nan_trace.tolist()))
    return {"t": t.tolist(), "xy": xy.tolist(), "sample": sample, "smooth": smooth.tolist(),
            "spikes": spikes.tolist(), "planted_pair": list(pair)}
