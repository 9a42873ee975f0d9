"""Lipschitz constants, McShane extension, and distance-probe families."""
from __future__ import annotations

import json
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .curves import SampledCurve, _window_indices
from .errors import InconsistentDataError, InputError
from .metric import BLOCK, MetricSpace

# Declared constants may sit exactly at the data's quotient maximum; allow
# this much relative float slack before calling the data inconsistent.
_L_RTOL = 1e-12


def lip_constant(points, values, space: MetricSpace) -> float:
    """Largest pairwise difference quotient |dv| / dist over the given points.

    Exact on finite data.  Duplicate point ids with differing values have an
    infinite quotient and raise :class:`InconsistentDataError`.
    """
    ids = [space.check_id(p) for p in points]
    vals = np.asarray(values, dtype=float)
    if len(ids) != len(vals):
        raise InputError(f"{len(ids)} points but {len(vals)} values")
    if len(ids) < 2:
        raise InputError("need at least two points")
    seen: dict[int, float] = {}
    for i, v in zip(ids, vals):
        if i in seen and seen[i] != v:
            raise InconsistentDataError(f"point {i} carries two values {seen[i]!r} and {v!r}")
        seen[i] = float(v)
    uid = np.array(sorted(seen))
    uv = np.array([seen[i] for i in uid])
    if len(uid) < 2:
        return 0.0
    return _max_quotient(space, uid, uv)


def _max_quotient(space: MetricSpace, ids: np.ndarray, values: np.ndarray) -> float:
    """max |values[i] - values[j]| / dist(ids[i], ids[j]) over pairs i < j of
    at least two distinct ids, one row block of the upper triangle at a time."""
    m = len(ids)
    block_max = []
    for lo in range(0, m - 1, BLOCK):
        hi = min(lo + BLOCK, m - 1)
        d = space.dist_block(ids[lo:hi], ids[lo:])
        dv = np.abs(values[lo:hi, None] - values[None, lo:])
        upper = np.arange(m - lo)[None, :] > np.arange(hi - lo)[:, None]
        q = np.divide(dv, d, out=np.zeros_like(d), where=upper)
        block_max.append(np.max(q))
    return float(np.max(block_max))


@dataclass(frozen=True)
class LipschitzSample:
    """Boundary data for a real function on a finite subset, evaluable
    anywhere through McShane extension with the declared constant L."""

    space: MetricSpace
    support: tuple[int, ...]
    values: tuple[float, ...]
    L: float
    # The data's Lipschitz constant when the caller has just computed it.
    _lip: InitVar[float | None] = None

    def __post_init__(self, _lip):
        if len(self.support) != len(self.values):
            raise InputError("support and values lengths differ")
        if len(self.support) == 0:
            raise InputError("empty support")
        if self.L < 0:
            raise InputError(f"Lipschitz constant must be nonnegative, got {self.L}")
        if len(self.support) >= 2:
            lc = lip_constant(self.support, self.values, self.space) if _lip is None else _lip
            if lc > self.L * (1 + _L_RTOL):
                raise InconsistentDataError(
                    f"declared L={self.L} below the data's Lipschitz constant {lc}"
                )

    def value_at(self, point_id: int) -> float:
        try:
            return float(self.values[self.support.index(int(point_id))])
        except ValueError:
            raise InputError(f"point {point_id} not in support") from None

    def to_json(self) -> dict:
        return {"support": list(self.support), "values": list(self.values), "L": self.L}

    @classmethod
    def from_json(cls, doc, space: MetricSpace) -> "LipschitzSample":
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        return cls(
            space=space,
            support=tuple(int(i) for i in doc["support"]),
            values=tuple(float(v) for v in doc["values"]),
            L=float(doc["L"]),
        )


def mcshane_extend(sample: LipschitzSample, query: int, envelope: str = "upper") -> float:
    """Evaluate the McShane extension of the sample at a query point.

    ``upper`` is min(values + L*dist), ``lower`` is max(values - L*dist),
    ``average`` their mean.  All three agree with the data on the support and
    are L-Lipschitz on the whole space.
    """
    return float(mcshane_extend_all(sample, [query], envelope=envelope)[0])


def mcshane_extend_all(sample: LipschitzSample, queries=None, envelope: str = "upper") -> np.ndarray:
    """Vectorized McShane extension at many query ids (default: all points)."""
    space = sample.space
    if queries is None:
        queries = np.arange(space.n)
    if envelope not in ("upper", "lower", "average"):
        raise InputError(f"unknown envelope {envelope!r}")
    queries = np.asarray([space.check_id(q) for q in queries], dtype=int)
    sup = np.asarray(sample.support, dtype=int)
    vals = np.asarray(sample.values, dtype=float)[:, None]
    upper = np.empty(len(queries))
    lower = np.empty(len(queries))
    for lo in range(0, len(queries), BLOCK):
        # dists: (n_support, block of queries)
        dists = sample.L * space.dist_block(sup, queries[lo:lo + BLOCK])
        if envelope != "lower":
            upper[lo:lo + BLOCK] = np.min(vals + dists, axis=0)
        if envelope != "upper":
            lower[lo:lo + BLOCK] = np.max(vals - dists, axis=0)
    if envelope == "upper":
        return upper
    if envelope == "lower":
        return lower
    return 0.5 * (upper + lower)


@dataclass(frozen=True)
class ProbeFamily:
    """Distance probes h_k = dist(center_k, .); each is 1-Lipschitz."""

    space: MetricSpace
    centers: tuple[int, ...]

    def values_at(self, point_id: int) -> np.ndarray:
        return self.space.dist_row(int(point_id), np.asarray(self.centers, dtype=int))


def probe_family(curve: SampledCurve, n: int) -> ProbeFamily:
    """First n points of a farthest-point ordering of the curve's distinct
    samples, used as a dense-subset surrogate.

    Deterministic: starts at the first sample in time order; ties in the
    farthest-point selection break toward the earliest candidate.
    """
    if n < 1:
        raise InputError(f"probe count must be >= 1, got {n}")
    space = curve.space
    distinct = list(dict.fromkeys(int(s) for s in curve.samples))  # first-visit order
    if n > len(distinct):
        warnings.warn(
            f"requested {n} probes but the curve has {len(distinct)} distinct samples; clamping",
            stacklevel=2,
        )
        n = len(distinct)
    ids = np.asarray(distinct, dtype=int)
    chosen = [0]
    mindist = space.dist_row(ids[0], ids)
    while len(chosen) < n:
        nxt = int(np.argmax(mindist))
        chosen.append(nxt)
        mindist = np.minimum(mindist, space.dist_row(ids[nxt], ids))
    return ProbeFamily(space=space, centers=tuple(int(ids[c]) for c in chosen))


def speed_via_probes(curve: SampledCurve, probes: ProbeFamily, t: float, window: float,
                     side: str = "both") -> float:
    """Supremum over probes of the absolute difference quotient of the
    post-composition at t, with the same window convention as metric_speed."""
    i1, i2 = _window_indices(curve, t, window, side)
    v1 = probes.values_at(int(curve.samples[i1]))
    v2 = probes.values_at(int(curve.samples[i2]))
    return float(np.max(np.abs(v2 - v1)) / (curve.times[i2] - curve.times[i1]))


def local_lip_estimate(f, space: MetricSpace, x: int, radius: float) -> float:
    """Max difference quotient of f over the punctured ball of the given
    radius around x; 0 if the ball holds no other point."""
    if radius <= 0:
        raise InputError(f"radius must be positive, got {radius}")
    x = space.check_id(x)
    dists = space.dist_row(x)
    mask = (dists > 0) & (dists <= radius)
    ys = np.flatnonzero(mask)
    if len(ys) == 0:
        return 0.0
    fx = float(f(x))
    quotients = [abs(float(f(int(y))) - fx) / dists[y] for y in ys]
    return float(max(quotients))
