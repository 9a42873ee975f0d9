"""Sampled curves: variation, arc-length reparametrization, metric speed,
chord-arc profiles, and covering-based length-content estimates.

A :class:`SampledCurve` stands for the piecewise-geodesic interpolant of its
samples; continuum quantities are evaluated at grid resolution.
"""
from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DegenerateInputError, InputError, _float_array
from .metric import BLOCK, MetricSpace, _Frozen, maximal_separated_net


class SampledCurve(_Frozen):
    """A time-ordered sequence of sample points in a metric space."""

    def __init__(self, space: MetricSpace, times, samples):
        times, samples = _float_array(times, "sample times", ndim=1), space.check_ids(samples)
        if len(times) < 2:
            raise InputError("a curve needs at least two sample times")
        if len(times) != len(samples):
            raise InputError(f"{len(times)} times but {len(samples)} samples")
        if not np.all(np.diff(times) > 0):
            raise InputError("sample times must be strictly increasing")
        self._set(space=space, times=times, samples=samples, _chords=None)

    @property
    def a(self) -> float:
        return float(self.times[0])

    @property
    def b(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    def chords(self) -> np.ndarray:
        """Distances between consecutive samples, computed on first use and
        kept read-only."""
        if self._chords is None:
            self._set(_chords=self.space.pair_distances(self.samples[:-1], self.samples[1:]))
        return self._chords

    def step_quotients(self) -> np.ndarray:
        """Per-step difference quotients dist/dt."""
        return self.chords() / np.diff(self.times)

    def is_simple(self) -> bool:
        """Exact sample injectivity."""
        s = np.sort(self.samples)
        return not np.any(s[1:] == s[:-1])

    def arc_coordinates(self) -> np.ndarray:
        """Cumulative chord lengths, starting at 0."""
        return np.concatenate([[0.0], np.cumsum(self.chords())])


def total_variation(curve: SampledCurve) -> float:
    """Variation over the finest partition (all sample times).

    Refinement monotonicity makes this the discrete supremum over all
    partitions of the grid.
    """
    return float(np.sum(curve.chords()))


def arc_length_reparam(curve: SampledCurve) -> SampledCurve:
    """Reparametrize by cumulative chord length, collapsing zero-length steps.

    The output has unit per-step speed and the same total variation.
    """
    chords = curve.chords()
    keep = np.concatenate([[True], chords > 0])
    if keep.sum() < 2:
        raise DegenerateInputError("curve has zero length; cannot reparametrize")
    samples = curve.samples[keep]
    s = np.concatenate([[0.0], np.cumsum(chords[chords > 0])])
    return SampledCurve(curve.space, s, samples)


def _window_indices(curve: SampledCurve, t: float, window: float, side: str) -> tuple[int, int]:
    if not 0 < window < np.inf:
        raise InputError(f"window must be positive and finite, got {window}")
    if not curve.a <= t <= curve.b:
        raise InputError(f"time {t!r} outside [{curve.a}, {curve.b}]")
    lo = t - window if side in ("both", "left") else t
    hi = t + window if side in ("both", "right") else t
    lo = max(lo, curve.a)
    hi = min(hi, curve.b)
    i1 = int(np.argmin(np.abs(curve.times - lo)))
    i2 = int(np.argmin(np.abs(curve.times - hi)))
    if i1 == i2:
        raise InputError("window contains fewer than two grid times")
    return i1, i2


def metric_speed(curve: SampledCurve, t: float, window: float, side: str = "both") -> float:
    """Symmetric difference quotient of the curve at time t.

    The endpoints t +/- window are snapped to the nearest grid times and the
    quotient divides by their actual separation; one-sided at the interval
    endpoints.  ``side`` selects the left/right one-sided variants.
    """
    i1, i2 = _window_indices(curve, t, window, side)
    d = curve.space.pair_distances(curve.samples[i1], curve.samples[i2])
    return float(d / (curve.times[i2] - curve.times[i1]))


def hausdorff1_content(space: MetricSpace, target, delta: float) -> float:
    """Greedy covering-based upper estimate of the length content of a point
    set at scale delta.

    Centers form a maximal (delta/2)-separated net over the target, scanned
    in the given order.  Consecutive centers contribute the distance between
    them capped at delta (one covering set per gap, diameter < delta for the
    capped part); the final net point contributes the diameter of its
    assigned cluster.  A singleton therefore has content 0 at every scale.
    """
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta}")
    target = space.check_ids(target)
    if not len(target):
        raise InputError("target set is empty")
    centers = np.asarray(maximal_separated_net(space, target, delta / 2.0).members)
    total = float(np.sum(np.minimum(space.pair_distances(centers[:-1], centers[1:]), delta)))
    # Cluster of the last center: target points whose nearest center is it.
    # Every target point lies within delta/2 of its nearest center (a member
    # at 0, a rejected candidate below the net's epsilon), so only the points
    # that close to the last center can be in its cluster.
    near = target[space.dist_block(centers[-1:], target)[0] < delta / 2.0]
    nearest = np.concatenate([
        np.argmin(space.dist_block(centers, near[lo:lo + BLOCK]), axis=0)
        for lo in range(0, len(near), BLOCK)
    ])
    cluster = near[nearest == len(centers) - 1]  # holds the last center, at distance 0
    return total + max(float(np.max(space.dist_block(cluster[lo:lo + BLOCK], cluster)))
                       for lo in range(0, len(cluster), BLOCK))


def chord_arc_profile(curve: SampledCurve) -> np.ndarray:
    """Per-interior-sample ratio of (arc length between the two grid
    neighbors) to (distance between those neighbors); always >= 1 at grid
    scale."""
    if not curve.is_simple():
        raise InputError("chord-arc profile requires a simple curve")
    chords = curve.chords()
    if np.sum(chords) == 0:
        raise InputError("chord-arc profile requires positive total variation")
    arcs = chords[:-1] + chords[1:]
    spans = curve.space.pair_distances(curve.samples[:-2], curve.samples[2:])
    if not np.all(spans > 0):
        i = int(np.argmin(spans > 0))
        a, b = curve.samples[i], curve.samples[i + 2]
        raise InputError(f"distinct points {a} and {b} (samples {i} and {i + 2}) are at distance 0")
    return arcs / spans


# -- I/O ---------------------------------------------------------------------


def load_curve_csv(text: str, space: MetricSpace | None = None) -> SampledCurve:
    """Load a curve from CSV text.

    Header ``t,point_id`` references an existing space; header ``t,x1,...,xn``
    builds a Euclidean space from the (deduplicated) coordinate rows.
    """
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed curve CSV: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise InputError("empty curve CSV")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    by_id = header[:2] == ["t", "point_id"]
    if header[0] != "t" or len(header) < 2:
        raise InputError(f"unrecognized curve CSV header {header!r}")
    if by_id and space is None:
        raise InputError("curve references point ids but no space was given")
    for k, r in enumerate(body, start=1):
        if len(r) != len(header):
            raise InputError(f"curve CSV row {k} has {len(r)} cells, the header has {len(header)}")
    try:
        times = [float(r[0]) for r in body]
        cells = [[int(r[1])] if by_id else [float(c) for c in r[1:]] for r in body]
    except ValueError as exc:
        raise InputError(f"curve CSV has a non-numeric cell: {exc}") from exc
    if by_id:
        return SampledCurve(space, times, [c[0] for c in cells])
    uniq, inverse = np.unique(np.array(cells), axis=0, return_inverse=True)
    return SampledCurve(MetricSpace.from_points(uniq), times, inverse)


def stats_json(curve: SampledCurve) -> dict:
    return {
        "total_variation": total_variation(curve),
        "is_simple": curve.is_simple(),
        "speed_profile": list(curve.step_quotients()),
    }
