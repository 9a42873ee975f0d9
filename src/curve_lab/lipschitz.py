"""Lipschitz constants, McShane extension, and distance-probe families."""
from __future__ import annotations

import itertools
import warnings
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve, _window_indices
from .errors import InconsistentDataError, InputError, _float_array, _number
from .metric import CHUNK, SUB, MetricSpace, _Frozen, _padded, block_folds, block_pairs

# Declared constants may sit exactly at the data's quotient maximum; allow
# this much relative float slack before calling the data inconsistent.
_L_RTOL = 1e-12


def lip_constant(points, values, space: MetricSpace) -> float | np.ndarray:
    """Largest pairwise difference quotient |dv| / dist over the given points.

    ``values`` holds one value per point, or one row per point with a column
    per function; a 2-D ``values`` gets an array of per-column constants from
    one pass over the distances.  Exact; non-finite values, strings and
    bools raise :class:`InputError`.  Duplicate point ids with differing values have an
    infinite quotient and raise :class:`InconsistentDataError`; distinct ids
    at distance 0 (coordinates whose difference underflows) raise
    :class:`InputError`.
    """
    ids = space.check_ids(points)
    vals = _float_array(values, "values")
    if vals.ndim not in (1, 2):
        raise InputError(f"values must be one number or one row per point, got shape {vals.shape}")
    if len(ids) != len(vals):
        raise InputError(f"{len(ids)} points but {len(vals)} values")
    if len(ids) < 2:
        raise InputError("need at least two points")
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    conflict = (vals != vals[first[inverse]]).reshape(len(ids), -1).any(axis=1)
    if conflict.any():
        k = int(np.argmax(conflict))
        a, b = vals[first[inverse[k]]].tolist(), vals[k].tolist()
        raise InconsistentDataError(f"point {ids[k]} carries two values {a!r} and {b!r}")
    first.sort()  # distinct ids in the caller's order, whose chunks follow a curve
    q = _max_quotient(space, ids[first], vals[first].reshape(len(first), -1))
    return float(q[0]) if vals.ndim == 1 else q


_BOUND_RTOL = 1e-9  # slack on bounds from box gaps, for the rounding of divisions, sums, products


def _max_quotient(space: MetricSpace, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column c, max |values[i, c] - values[j, c]| / dist(ids[i], ids[j])
    over pairs of distinct ids, pruned by :func:`block_pairs`.

    A block pair's quotients are at most its bound, their value spread over
    their gap, and about spread / far or more.  A first scan computes the
    chunk pair of highest spread / far in each column; then the upper
    triangle's pairs whose bounds fall below the largest quotients so far in
    every column are skipped.  A zero gap, and 0 / 0, skip nothing; the
    zero-distance error names the smallest position in a zero pair, with
    its smallest partner."""
    best, zeros = np.zeros(values.shape[1]), [np.empty((2, 0), dtype=int)]  # zero pairs, smaller first
    vmin, vmax = block_folds(np.minimum, values).T, block_folds(np.maximum, values).T

    def spread(i, j):
        return np.maximum(vmax.take(i, axis=1) - vmin.take(j, axis=1), vmax.take(j, axis=1) - vmin.take(i, axis=1))

    def bounded(near, i, j):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = spread(i, j) / near * (1.0 + _BOUND_RTOL)
        return ~np.logical_and.reduce(bound < best.reshape((-1,) + (1,) * near.ndim), axis=0) & (i <= j)

    far, scan = block_pairs(space, ids, ids)
    c, seed = np.arange(len(far)), np.zeros(far.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = spread(c[:, None], c[None]) / far
    floor[:, c, c] = -np.inf  # a chunk with itself; the neighbours of a curve have the highest bounds
    seed.flat[floor.reshape(len(floor), -1).argmax(axis=1)] = True
    for a, b, d in itertools.chain(scan(lambda near, i, j: seed[i, j] if near.ndim == 2 else near >= 0),
                                   scan(bounded)):
        d[a[:, None] == b[None]] = np.inf  # a position meets itself
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, v in enumerate(values.T):
                q = v[a][:, None] - v[b][None]
                np.abs(q, out=q)
                q /= d
                best[k] = np.maximum(best[k], np.maximum.reduce(q, axis=None))
        if not np.isfinite(best).all():
            # From a zero distance's batch on the maximum is not finite.
            x, y, z = (d == 0).nonzero()
            zeros.append(np.sort([a[x, z], b[y, z]], axis=0))
    zeros = np.concatenate(zeros, axis=1)
    if zeros.size:
        i, j = ids[zeros[:, np.lexsort(zeros[::-1])[0]]]
        raise InputError(f"distinct points {i} and {j} are at distance 0")
    return best


class LipschitzSample(_Frozen):
    """Boundary data for a real function on a finite subset, evaluable
    anywhere through McShane extension with the declared constant L.
    ``support`` and ``values`` are read-only copies, an int and a float
    array, and ``L`` is a float.  ``_lip`` is the data's Lipschitz constant
    when the caller has just computed it."""

    def __init__(self, space: MetricSpace, support, values, L: float, _lip: float | None = None):
        support, values = space.check_ids(support), _float_array(values, "sample values", ndim=1)
        L = _number(L, "Lipschitz sample L")
        if len(support) != len(values):
            raise InputError("support and values lengths differ")
        if len(support) == 0:
            raise InputError("empty support")
        if not np.isfinite(L):
            raise InputError("Lipschitz sample L must be finite")
        if L < 0:
            raise InputError(f"Lipschitz constant must be nonnegative, got {L}")
        if len(support) >= 2:
            lc = lip_constant(support, values, space) if _lip is None else _lip
            if lc > L * (1 + _L_RTOL):
                raise InconsistentDataError(
                    f"declared L={L} below the data's Lipschitz constant {lc}"
                )
        self._set(space=space, support=support, values=values, L=L)

    def to_json(self) -> dict:
        return {"support": self.support.tolist(), "values": self.values.tolist(), "L": self.L}

    @classmethod
    def from_json(cls, doc, space: MetricSpace) -> "LipschitzSample":
        if not isinstance(doc, dict):
            raise InputError("Lipschitz sample must be a JSON object")
        try:
            return cls(space=space, support=doc["support"], values=doc["values"], L=doc["L"])
        except KeyError as exc:
            raise InputError(f"Lipschitz sample has no {exc.args[0]!r} key") from None


def mcshane_extend_all(sample: LipschitzSample, queries=None, envelope: str = "upper") -> np.ndarray:
    """McShane extension of the sample at query ids (default: all points):
    ``upper`` min(values + L*dist), ``lower`` max(values - L*dist), ``average``
    their mean.  All three agree with the data on the support and are
    L-Lipschitz on the whole space.

    In sign form (+1 ``upper``, -1 ``lower``) every term is sign * v + L * d,
    and an envelope is the least term; ``average`` is the mean of the two.  A
    query's seed is its least term at four support points, of least sign * v in
    the sub-chunks of the support chunk of least sign * v + L * far.  Each sign
    scans one :func:`block_pairs` pass: it keeps the pairs whose bound (least
    sign * v plus L times the gap; nan where a term may overflow) does not
    exceed their query block's largest seed, and folds their terms in support
    order, keeping the last of tied 0.0 and -0.0: the results keep their bits."""
    space, L = sample.space, sample.L
    if envelope not in ("upper", "lower", "average"):
        raise InputError(f"unknown envelope {envelope!r}")
    queries = space.check_ids(np.arange(space.n) if queries is None else queries)
    sup, vals = sample.support, sample.values
    far, scan = block_pairs(space, queries, sup)
    far[far == np.inf] = 0.0  # boxes that span the line: seed from the least values alone

    def extend(sign):
        op, fold = (np.add, np.minimum) if sign > 0 else (np.subtract, np.maximum)
        with np.errstate(over="ignore", invalid="ignore"):
            slope = L if np.isfinite(np.max(np.abs(vals)) + L * space._extent) else np.nan
            low = block_folds(np.minimum, sign * vals)
            pos = _padded(len(sup)).reshape(-1, CHUNK // SUB, SUB)[np.argmin(low[:len(far.T)] + slope * far, 1)]
            pts = np.take_along_axis(pos, np.argmin(sign * vals[pos], axis=2)[:, :, None], axis=2)[:, :, 0]
            pts = pts[np.arange(len(queries)) // CHUNK].T
            seed = sign * vals[pts] + L * space.pair_distances(queries, sup[pts])
            top = block_folds(np.maximum, np.minimum.reduce(seed, axis=0))
            top += _BOUND_RTOL * np.abs(top)

        def keep(near, i, j):
            return ~(low[j] + slope * near > top[i])

        env = np.full(len(queries), sign * np.inf)
        for a, b, d in scan(keep):
            d *= L
            terms = fold.reduce(op(vals[b], d, out=d), axis=1)
            runs = np.flatnonzero(a[0] != np.append(-1, a[0, :-1]))  # where a query sub-chunk's pairs start
            # Runs fold along axis 0: reduceat along the innermost axis may drop a nan's sign.
            fold.at(env, a[:, runs].T, fold.reduceat(terms.T.copy(), runs))
        return env

    if envelope == "average":
        return 0.5 * (extend(1.0) + extend(-1.0))
    return extend(1.0 if envelope == "upper" else -1.0)


class ProbeFamily(NamedTuple):
    """Distance probes h_k = dist(center_k, .); each is 1-Lipschitz."""

    space: MetricSpace
    centers: tuple[int, ...]


def probe_family(curve: SampledCurve, n: int) -> ProbeFamily:
    """First n points of a farthest-point ordering of the curve's distinct
    samples, used as a dense-subset surrogate.

    Deterministic: starts at the first sample in time order; ties in the
    farthest-point selection break toward the earliest candidate.
    """
    if n < 1:
        raise InputError(f"probe count must be >= 1, got {n}")
    space = curve.space
    ids = curve.samples[np.sort(np.unique(curve.samples, return_index=True)[1])]  # distinct, first-visit order
    if n > len(ids):
        warnings.warn(
            f"requested {n} probes but the curve has {len(ids)} distinct samples; clamping",
            stacklevel=2,
        )
        n = len(ids)
    chosen = [0]
    mindist = space.pair_distances(ids[0], ids)
    while len(chosen) < n:
        nxt = int(np.argmax(mindist))
        if mindist[nxt] == 0:
            # Every sample left is at distance 0 from a chosen one.
            k = next(k for k in range(len(ids)) if k not in chosen)
            c = chosen[int(np.argmin(space.pair_distances(ids[k], ids[chosen])))]
            raise InputError(f"distinct points {ids[c]} and {ids[k]} are at distance 0")
        chosen.append(nxt)
        np.minimum(mindist, space.pair_distances(ids[nxt], ids), out=mindist)
    return ProbeFamily(space=space, centers=tuple(int(ids[c]) for c in chosen))


def speed_via_probes(curve: SampledCurve, probes: ProbeFamily, t: float, window: float,
                     side: str = "both") -> float:
    """Supremum over probes of the absolute difference quotient of the
    post-composition at t, with the same window convention as metric_speed."""
    if not probes.space.same_as(curve.space):
        raise InputError("probe family and curve live on different spaces")
    i1, i2 = _window_indices(curve, t, window, side)
    v1, v2 = probes.space.dist_block(curve.samples[[i1, i2]], probes.centers)
    return float(np.max(np.abs(v2 - v1)) / (curve.times[i2] - curve.times[i1]))

