"""Shared builders for the test suite: small explicit spaces, Euclidean
polylines, and arc-aligned sampling used by the witness and acceptance tests."""
from __future__ import annotations

import numpy as np

from curve_lab import MetricSpace, SampledCurve


# Space documents that every command must reject with exit 2: fields of the
# wrong type or shape, points lists of the wrong length, and edge ends that
# are not integers (truncating them would name other points).
MALFORMED_SPACES = [
    {"kind": "graph", "n": "x", "data": [[0, 1, 1.0]]},
    {"kind": "graph", "n": 1e400, "data": [[0, 1, 1.0]]},
    {"kind": "graph", "n": 2, "data": [[0, 1]]},
    {"kind": "graph", "n": 2, "data": [[0, 1, "a"]]},
    {"kind": "graph", "n": 2, "data": 7},
    {"kind": "graph", "n": 3, "points": ["a", "b"], "data": [[0, 1, 1.0]]},
    {"kind": "euclidean", "points": 5, "data": [[0, 0], [1, 1]]},
    {"kind": "euclidean", "data": [[[0], [1]], [[2], [3]]]},
    {"kind": "euclidean", "data": [0, 1, 2]},
    {"kind": "euclidean", "points": ["a"], "data": [[0, 0], [1, 1]]},
    {"kind": "matrix", "points": ["a", "b", "c"], "data": [[0, 1], [1, 0]]},
    {"kind": "graph", "n": 2, "data": [[0, 1.9, 1.0]]},
    {"kind": "graph", "n": 2, "data": [[0, True, 1.0]]},
]


def line_space(xs) -> MetricSpace:
    """Points on the real line as a 1-D Euclidean embedding."""
    return MetricSpace.from_points([[float(x)] for x in xs])


def euclidean_curve(coords, times=None) -> SampledCurve:
    """Curve through distinct coordinate rows, in order."""
    coords = np.asarray(coords, dtype=float)
    if times is None:
        times = np.linspace(0.0, 1.0, len(coords))
    space = MetricSpace.from_points(coords)
    return SampledCurve(space, times, np.arange(len(coords)))


def l_polyline() -> SampledCurve:
    """The right-angle polyline (0,0) -> (1,0) -> (1,1) at t = 0, 1/2, 1."""
    return euclidean_curve([[0, 0], [1, 0], [1, 1]], [0.0, 0.5, 1.0])


def circle_curve(n: int) -> SampledCurve:
    """Unit circle sampled at n+1 uniform times on [0, 1]; the closing sample
    is perturbed onto t=1 with the same coordinates as t=0 avoided by stopping
    one step short of a full turn."""
    t = np.linspace(0.0, 1.0, n + 1)
    angles = 2.0 * np.pi * t[:-1]
    coords = np.column_stack([np.cos(angles), np.sin(angles)])
    return SampledCurve(MetricSpace.from_points(coords), t[:-1], np.arange(n))


def polyline_arcs(vertices) -> np.ndarray:
    """Cumulative arc length at each vertex."""
    v = np.asarray(vertices, dtype=float)
    seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def point_at_arc(vertices, cum, s: float) -> np.ndarray:
    """Point of the polyline at arc-length coordinate s."""
    v = np.asarray(vertices, dtype=float)
    s = min(max(s, 0.0), cum[-1])
    k = int(np.searchsorted(cum, s, side="right")) - 1
    k = min(k, len(v) - 2)
    seg = cum[k + 1] - cum[k]
    frac = 0.0 if seg == 0 else (s - cum[k]) / seg
    return v[k] + frac * (v[k + 1] - v[k])


def sample_polyline(vertices, arc_positions) -> SampledCurve:
    """Curve through the polyline at the given strictly increasing arc
    positions, with times equal to those positions."""
    cum = polyline_arcs(vertices)
    arc_positions = np.asarray(sorted(set(float(s) for s in arc_positions)))
    coords = np.array([point_at_arc(vertices, cum, s) for s in arc_positions])
    return euclidean_curve(coords, arc_positions)


def random_monotone_polyline(rng: np.random.Generator, n_vertices: int = 6,
                             max_slope: float = 1.0) -> np.ndarray:
    """Simple polyline: strictly increasing x, bounded slope.  Injectivity of
    every arc-position sample follows from monotone x."""
    dx = rng.uniform(0.5, 1.5, size=n_vertices - 1)
    x = np.concatenate([[0.0], np.cumsum(dx)])
    y = np.concatenate([[0.0], np.cumsum(rng.uniform(-max_slope, max_slope,
                                                     size=n_vertices - 1) * dx)])
    return np.column_stack([x, y])


def fold_aligned_curve(vertices, tooth: float) -> SampledCurve:
    """Sample a polyline so every fold of a period-2*tooth triangle wave of
    arc length lands on the grid: arc positions at all multiples of tooth,
    plus the vertices and both ends."""
    cum = polyline_arcs(vertices)
    length = float(cum[-1])
    folds = np.arange(0.0, length, tooth)
    arcs = np.concatenate([folds, cum, [length]])
    return sample_polyline(vertices, arcs)
