"""Numerical checkers for the structural identities and inequalities the
toolkit is built around: contraction of variation under Lipschitz maps, the
discrete area formula, the variation integral, discontinuity measures,
continuous-representative recovery, AC_p consistency, and a Luzin-N probe."""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, ScheduleError

# Each check imports the curves and lipschitz names it calls, so the checks on
# a bare values trace (disc, recover) load neither.
if TYPE_CHECKING:
    from collections.abc import Mapping

    from .curves import SampledCurve
    from .lipschitz import LipschitzSample


class CheckReport(NamedTuple):
    """One verified (in)equality: ``lhs <= rhs + tolerance`` for one-sided
    checks, ``|lhs - rhs| <= tolerance`` for identities."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    verdict: bool
    context: Mapping = MappingProxyType({})

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.verdict else "fail",
            "context": dict(self.context),
        }


def _report(name, lhs, rhs, tolerance, one_sided, context=None) -> CheckReport:
    residual = max(0.0, lhs - rhs) if one_sided else abs(lhs - rhs)
    return CheckReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tolerance),
        verdict=bool(residual <= tolerance),
        context=dict(context or {}),
    )


def check_contraction(curve: SampledCurve, sample: LipschitzSample) -> CheckReport:
    """Variation of an L-Lipschitz function along the curve is at most
    L times the curve's variation.  Bookkeeping: the sample's L is at least
    its data's constant, and its McShane envelope is L-Lipschitz, so the
    inequality holds by construction, up to rounding."""
    from .curves import total_variation
    from .lipschitz import mcshane_extend_all
    if not sample.space.same_as(curve.space):
        raise InputError("Lipschitz sample and curve live on different spaces")
    values = mcshane_extend_all(sample, curve.samples)
    lhs = float(np.sum(np.abs(np.diff(values))))
    tv = total_variation(curve)
    rhs = sample.L * tv
    tol = 1e-12 * max(1.0, abs(rhs))
    return _report(
        "contraction", lhs, rhs, tol, one_sided=True,
        context={"L": sample.L, "total_variation": tv, "bookkeeping": True},
    )


def area_formula_check(curve: SampledCurve, values: Sequence[float],
                       weights: Optional[Sequence[float]] = None) -> CheckReport:
    """Discrete area formula: summing step weights against increments of a
    real-valued trace equals sweeping the level line and counting weighted
    crossings of each elementary level interval.

    The levels are the sample values themselves, so the two sides are the
    same sum regrouped: an algebraic identity, reported to confirm the
    bookkeeping, as for :func:`variation_integral_check`.  A step from lo to
    hi crosses exactly the elementary intervals between the ranks of lo and
    hi among the levels, so one difference array gives every interval's
    weight, in O(n log n).
    """
    h = np.asarray(values, dtype=float)
    if len(h) != len(curve.samples):
        raise InputError(f"{len(h)} values for {len(curve.samples)} samples")
    if weights is None:
        theta = np.ones(len(h))
    else:
        theta = np.asarray(weights, dtype=float)
        if len(theta) != len(h):
            raise InputError(f"{len(theta)} weights for {len(h)} values")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(theta))):
        raise InputError("area formula values and weights must be finite")
    theta_bar = 0.5 * (theta[:-1] + theta[1:])
    lhs = float(np.sum(theta_bar * np.abs(np.diff(h))))

    levels = np.unique(h)
    first = np.searchsorted(levels, np.minimum(h[:-1], h[1:]))
    last = np.searchsorted(levels, np.maximum(h[:-1], h[1:]))
    # Interval k spans levels[k]..levels[k+1]; a step covers first..last-1.
    starts = np.bincount(first, weights=theta_bar, minlength=len(levels))
    ends = np.bincount(last, weights=theta_bar, minlength=len(levels))
    crossing = np.cumsum(starts - ends)[:-1]
    # Summed in interval order from 0.0, as a running total would.
    rhs = float(np.cumsum(np.concatenate([[0.0], np.diff(levels) * crossing]))[-1])
    tol = 1e-6 * max(1.0, abs(rhs))
    return _report("area_formula", lhs, rhs, tol, one_sided=False,
                   context={"levels": len(levels), "bookkeeping": True})


def variation_integral_check(curve: SampledCurve) -> CheckReport:
    """Variation equals chord length weighted by traversal multiplicity,
    summed over the distinct unordered geometric edges of the sample path.
    An identity by construction; reported to confirm the bookkeeping."""
    from .curves import total_variation
    lhs = total_variation(curve)
    steps = np.sort(np.column_stack([curve.samples[:-1], curve.samples[1:]]), axis=1)
    edges, first, mult = np.unique(steps, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    d = curve.space.pair_distances(edges[order, 0], edges[order, 1])
    # Summed in first-traversal order, as a running total would.
    rhs = float(np.cumsum(mult[order] * d)[-1])
    tol = 1e-6 * max(1.0, abs(rhs))
    return _report("variation_integral", lhs, rhs, tol, one_sided=False,
                   context={"distinct_edges": len(edges), "simple": curve.is_simple(),
                            "bookkeeping": True})


class DiscontinuityProfile(NamedTuple):
    epsilon: float
    delta: float
    pair_count: int
    measure: float


def discontinuity_measure(values: Sequence[float], epsilon: float, delta: float) -> DiscontinuityProfile:
    """Plane measure of the near-diagonal pairs (s, t) of an evenly sampled
    trace on [0, 1] with |s - t| < delta whose values differ by at least
    epsilon, estimated as (pair count) times the grid cell area.  A function
    continuous at scale (epsilon, delta) gives zero; an interior jump of size
    >= epsilon gives about delta**2.  Non-finite values raise
    :class:`InputError`."""
    v = np.asarray(values, dtype=float)
    if not (0 < epsilon < math.inf and 0 < delta < math.inf):
        raise InputError(f"epsilon and delta must be positive and finite, got {epsilon}, {delta}")
    if not np.all(np.isfinite(v)):
        raise InputError("trace values must be finite")
    t = np.linspace(0.0, 1.0, len(v))
    if len(v) < 2:
        raise InputError("need at least two samples")
    dt = float(np.mean(np.diff(t)))
    count = 0
    # Count ordered pairs by sliding offset; offsets beyond delta/dt cannot
    # contribute, nor can offsets beyond the trace (delta/dt may overflow).
    max_off = int(math.ceil(min(delta / dt, len(v)))) + 1
    for off in range(1, min(max_off, len(v))):
        close = np.abs(t[off:] - t[:-off]) < delta
        jump = np.abs(v[off:] - v[:-off]) >= epsilon
        count += 2 * int(np.sum(close & jump))
    return DiscontinuityProfile(
        epsilon=float(epsilon), delta=float(delta),
        pair_count=count, measure=count * dt * dt,
    )


def continuous_representative(values: Sequence[float],
                              epsilon_schedule: Sequence[float],
                              window: int = 5) -> Optional[tuple[np.ndarray, float]]:
    """Recover a continuous representative by replacing isolated deviants with
    the median of the locally dominant value cluster, sweeping a decreasing
    epsilon schedule.  Returns the cleaned trace and the fraction of samples
    modified, or None when the residual discontinuity measure still exceeds
    one grid cell (no continuous representative at the requested scales).

    Each sweep visits the samples in order and replaces one in place when
    more than half of its window (``window`` samples either side, itself
    included) lies at least epsilon away; a replacement is seen by the
    samples after it.  A sample whose window holds no earlier replacement
    is judged by one whole-array pass per epsilon, so only the ``window``
    samples after each replacement are looked at one by one, in Python
    floats: the same IEEE operations as numpy's, without its per-call cost.
    """
    v = np.array(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InputError("trace values must be finite")
    sched = [float(e) for e in epsilon_schedule]
    if not sched or not all(0 < e < math.inf for e in sched):
        raise ScheduleError(f"epsilon schedule must be nonempty, positive and finite: {sched}")
    if any(b >= a for a, b in zip(sched[:-1], sched[1:])):
        raise ScheduleError(f"epsilon schedule must be strictly decreasing: {sched}")
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
        raise ScheduleError(f"window must be an integer, got {window!r}")
    window = int(window)
    if window < 3:
        raise ScheduleError(f"window must span at least 3 samples, got {window}")
    if len(v) < window:
        raise ScheduleError(f"trace of {len(v)} samples is shorter than window {window}")
    n = len(v)
    modified = np.zeros(n, dtype=bool)
    vals = v.tolist()  # v as Python floats, kept equal to v
    for eps in sched:
        hits = np.flatnonzero(_deviants(v, eps, window)).tolist()
        stale = -1  # windows up to here hold a replacement made in this sweep
        i = k = 0
        while i < n:
            if i > stale:
                while k < len(hits) and hits[k] < i:
                    k += 1
                if k == len(hits):
                    break
                i = hits[k]
            lo, hi = max(0, i - window), min(n, i + window + 1)
            vi = vals[i]
            far = [x for x in vals[lo:hi] if not abs(x - vi) < eps]
            # Majority cluster of the window disagrees with v[i]: replace.
            if len(far) > (hi - lo) / 2.0:
                # np.median's value: the middle element or the mean of the
                # two, each summed onto 0.0 (so a -0.0 median is 0.0).
                far.sort()
                m = len(far) // 2
                v[i] = vals[i] = 0.0 + far[m] if len(far) % 2 else (0.0 + far[m - 1] + far[m]) / 2.0
                if math.isinf(vals[i]):
                    raise InputError(f"trace values too large: the median replacing sample {i} overflows")
                modified[i] = True
                stale = i + window
            i += 1
    dt = 1.0 / (n - 1)
    residual = discontinuity_measure(v, sched[-1], 2.5 * dt)
    if residual.measure > dt * dt:
        return None
    return v, float(np.mean(modified))


def _deviants(v: np.ndarray, eps: float, window: int) -> np.ndarray:
    """Mask of the samples whose window, in the trace as it stands, holds
    more than half its samples at least eps away: the samples a sweep
    replaces unless a replacement before them changes their window.

    One pass per offset o compares the samples o apart and counts each
    close pair at both ends; a sample meets itself under the same test, so
    a non-finite one is not close to itself."""
    close = (np.abs(v - v) < eps).astype(int)
    for o in range(1, window + 1):
        near = np.abs(v[o:] - v[:-o]) < eps
        close[o:] += near
        close[:-o] += near
    size = np.minimum(np.arange(len(v)), window) + np.minimum(np.arange(len(v))[::-1], window) + 1
    return 2 * close < size


# Largest relative change of the speed-norm estimate between refinements that
# an AC_p-consistent curve shows.
ACP_STABILITY_RTOL = 0.05


class ACPReport(NamedTuple):
    p: float
    norm_estimate: float
    refinement_trend: tuple[float, ...]
    verdict: str  # "AC_p-consistent" | "AC_p-inconsistent" | "inconclusive"


def _speed_norm(curve: SampledCurve, p: float) -> float:
    q = curve.step_quotients()
    if math.isinf(p):
        return float(np.max(q))
    dt = np.diff(curve.times)
    return float(np.sum((q ** p) * dt) ** (1.0 / p))


def ac_p_test(curve: SampledCurve, p: float,
              refine: Optional[Callable[[SampledCurve], SampledCurve]] = None,
              refinements: int = 1) -> ACPReport:
    """Estimate the L^p norm of the metric speed and test its stability under
    grid refinement.  A curve that is absolutely continuous with p-integrable
    speed has a stable norm; an unbounded-speed curve (like a square-root cusp
    at p >= 2) shows a growing trend and is reported inconsistent."""
    if not p >= 1:
        raise InputError(f"p must be >= 1, got {p}")
    trend = [_speed_norm(curve, p)]
    if refine is None or refinements < 1:
        return ACPReport(p=float(p), norm_estimate=trend[0],
                         refinement_trend=tuple(trend), verdict="inconclusive")
    c = curve
    for _ in range(refinements):
        c = refine(c)
        trend.append(_speed_norm(c, p))
    rels = [abs(b - a) / max(abs(a), 1e-300) for a, b in zip(trend[:-1], trend[1:])]
    verdict = "AC_p-consistent" if max(rels) <= ACP_STABILITY_RTOL else "AC_p-inconsistent"
    return ACPReport(p=float(p), norm_estimate=trend[-1],
                     refinement_trend=tuple(trend), verdict=verdict)


def luzin_n_probe(curve: SampledCurve, null_set: Sequence[tuple[float, float]],
                  delta: float) -> CheckReport:
    """Luzin-N style probe: the length content created by the part of the
    curve parametrized over a small time set is controlled by the worst step
    quotient seen outside that set, times the measure of the union of its
    intervals.  A curve that tears a time-null set into positive length fails."""
    from .curves import hausdorff1_content
    if not 0 < delta < math.inf:
        raise InputError(f"delta must be positive and finite, got {delta}")
    intervals = [(float(a), float(b)) for a, b in null_set]
    for a, b in intervals:
        if not -math.inf < a < b < math.inf:
            raise InputError(f"interval ({a}, {b}) must be finite and nonempty")
    mask = np.zeros(len(curve.times), dtype=bool)
    for a, b in intervals:
        mask |= (curve.times >= a) & (curve.times <= b)
    ids = curve.samples[mask]
    if len(ids) == 0:
        return _report("luzin_n", 0.0, 0.0, delta, one_sided=True,
                       context={"null_set_samples": 0})
    content = hausdorff1_content(curve.space, ids, delta)
    step_mask = mask[:-1] & mask[1:]
    within = float(np.sum(curve.chords()[step_mask]))
    lhs = max(content, within)
    length, end = 0.0, -math.inf  # the measure of the union, which the mask holds
    for a, b in sorted(intervals):
        length, end = length + max(b - max(a, end), 0.0), max(end, b)
    # Estimate the Lipschitz behavior from the steps outside the null set; a
    # jump hidden inside the set must not inflate its own budget.
    q = curve.step_quotients()
    outside = q[~step_mask]
    rhs = float(np.max(outside) if len(outside) else np.max(q)) * length
    return _report(
        "luzin_n", lhs, rhs, max(delta, 1e-12), one_sided=True,
        context={"null_set_samples": int(len(ids)), "content": content,
                 "within_variation": within, "set_length": length},
    )
