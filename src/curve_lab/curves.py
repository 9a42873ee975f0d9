"""Sampled curves: variation, arc-length reparametrization, metric speed,
chord-arc profiles, and covering-based length-content estimates.

A :class:`SampledCurve` stands for the piecewise-geodesic interpolant of its
samples; continuum quantities are evaluated at grid resolution.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError
from .metric import BLOCK, MetricSpace, maximal_separated_net


class SampledCurve:
    """A time-ordered sequence of sample points in a metric space."""

    def __init__(self, space: MetricSpace, times, samples):
        times = np.asarray(times, dtype=float)
        samples = np.asarray(samples, dtype=int)
        if times.ndim != 1 or len(times) < 2:
            raise InputError("a curve needs at least two sample times")
        if len(times) != len(samples):
            raise InputError(f"{len(times)} times but {len(samples)} samples")
        if not np.all(np.diff(times) > 0):
            raise InputError("sample times must be strictly increasing")
        if samples.min() < 0 or samples.max() >= space.n:
            raise InputError("sample id out of range for the space")
        times.setflags(write=False)
        samples.setflags(write=False)
        self.space = space
        self.times = times
        self.samples = samples

    @property
    def a(self) -> float:
        return float(self.times[0])

    @property
    def b(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    def chords(self) -> np.ndarray:
        """Distances between consecutive samples."""
        return self.space.pair_distances(self.samples[:-1], self.samples[1:])

    def step_quotients(self) -> np.ndarray:
        """Per-step difference quotients dist/dt."""
        return self.chords() / np.diff(self.times)

    def is_simple(self) -> bool:
        """Exact sample injectivity."""
        return len(np.unique(self.samples)) == len(self.samples)

    def arc_coordinates(self) -> np.ndarray:
        """Cumulative chord lengths, starting at 0."""
        return np.concatenate([[0.0], np.cumsum(self.chords())])

    def time_index(self, t: float) -> int:
        """Index of a grid time equal to t, or raise."""
        i = int(np.searchsorted(self.times, t))
        if i < len(self.times) and self.times[i] == t:
            return i
        raise InputError(f"time {t!r} is not on the curve's grid")


@dataclass(frozen=True)
class Partition:
    """An ordered time grid from a to b whose knots lie on a curve's grid."""

    knots: tuple[float, ...]

    def __post_init__(self):
        k = self.knots
        if len(k) < 2:
            raise InputError("a partition needs at least two knots")
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise InputError("partition knots must be strictly increasing")


@dataclass(frozen=True)
class CurveStats:
    total_variation: float
    is_simple: bool
    speed_profile: tuple[float, ...]


def curve_stats(curve: SampledCurve) -> CurveStats:
    return CurveStats(
        total_variation=total_variation(curve),
        is_simple=curve.is_simple(),
        speed_profile=tuple(curve.step_quotients()),
    )


def variation_over_partition(curve: SampledCurve, part: Partition) -> float:
    """Sum of consecutive sample distances along the partition's knots."""
    if part.knots[0] != curve.a or part.knots[-1] != curve.b:
        raise InputError("partition must start at a and end at b")
    idx = np.array([curve.time_index(t) for t in part.knots])
    ids = curve.samples[idx]
    return float(np.sum(curve.space.pair_distances(ids[:-1], ids[1:])))


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
    if window <= 0:
        raise InputError(f"window must be positive, got {window}")
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
    d = curve.space.dist(int(curve.samples[i1]), int(curve.samples[i2]))
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
    target = np.asarray([space.check_id(t) for t in target], dtype=int)
    if not len(target):
        raise InputError("target set is empty")
    centers = list(maximal_separated_net(space, target, delta / 2.0).members)
    total = 0.0
    if len(centers) > 1:
        gaps = space.pair_distances(centers[:-1], centers[1:])
        total += float(np.sum(np.minimum(gaps, delta)))
    # Cluster of the last center: target points whose nearest center is it.
    if len(centers) == 1:
        cluster = target
    else:
        nearest = np.concatenate([
            np.argmin(space.dist_block(centers, target[lo:lo + BLOCK]), axis=0)
            for lo in range(0, len(target), BLOCK)
        ])
        cluster = target[nearest == len(centers) - 1]
    if len(cluster) > 1:
        total += max(float(np.max(space.dist_block(cluster[lo:lo + BLOCK], cluster)))
                     for lo in range(0, len(cluster), BLOCK))
    return total


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
    return arcs / spans


# -- I/O ---------------------------------------------------------------------


def load_curve_csv(text_or_path, space: MetricSpace | None = None) -> SampledCurve:
    """Load a curve from CSV.

    Header ``t,point_id`` references an existing space; header ``t,x1,...,xn``
    builds a Euclidean space from the (deduplicated) coordinate rows.
    """
    if isinstance(text_or_path, str) and "\n" not in text_or_path:
        with open(text_or_path, newline="") as fh:
            rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(io.StringIO(text_or_path)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise InputError("empty curve CSV")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    if header[:2] == ["t", "point_id"]:
        if space is None:
            raise InputError("curve references point ids but no space was given")
        times = [float(r[0]) for r in body]
        samples = [int(r[1]) for r in body]
        return SampledCurve(space, times, samples)
    if header[0] == "t":
        times = [float(r[0]) for r in body]
        coords = np.array([[float(c) for c in r[1:]] for r in body])
        uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
        built = MetricSpace.from_points(uniq)
        return SampledCurve(built, times, inverse)
    raise InputError(f"unrecognized curve CSV header {header!r}")


def stats_json(curve: SampledCurve) -> dict:
    st = curve_stats(curve)
    return {
        "total_variation": st.total_variation,
        "is_simple": st.is_simple,
        "speed_profile": list(st.speed_profile),
    }
