"""Lipschitz constants, McShane extension, and distance-probe families."""
from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .curves import SampledCurve, _window_indices
from .errors import InconsistentDataError, InputError
from .metric import BLOCK, MetricSpace, _box_gaps, _chunks, _number

# Declared constants may sit exactly at the data's quotient maximum; allow
# this much relative float slack before calling the data inconsistent.
_L_RTOL = 1e-12


def lip_constant(points, values, space: MetricSpace) -> float | np.ndarray:
    """Largest pairwise difference quotient |dv| / dist over the given points.

    ``values`` holds one value per point, or one row per point with a column
    per function; a 2-D ``values`` gets an array of per-column constants from
    one pass over the distances.  Exact; non-finite values raise
    :class:`InputError`.  Duplicate point ids with differing values have an
    infinite quotient and raise :class:`InconsistentDataError`; distinct ids
    at distance 0 (coordinates whose difference underflows) raise
    :class:`InputError`.
    """
    ids = space.check_ids(points)
    vals = np.asarray(values, dtype=float)
    if len(ids) != len(vals):
        raise InputError(f"{len(ids)} points but {len(vals)} values")
    if len(ids) < 2:
        raise InputError("need at least two points")
    if not np.all(np.isfinite(vals)):
        raise InputError("values must be finite")
    uid, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    uv = vals[first]
    conflict = (vals != uv[inverse]).reshape(len(ids), -1).any(axis=1)
    conflict &= np.arange(len(ids)) != first[inverse]
    if conflict.any():
        k = int(np.argmax(conflict))
        a, b = uv[inverse[k]].tolist(), vals[k].tolist()
        raise InconsistentDataError(f"point {ids[k]} carries two values {a!r} and {b!r}")
    if len(uid) < 2:
        return 0.0 if vals.ndim == 1 else np.zeros(vals.shape[1])
    q = _max_quotient(space, uid, uv.reshape(len(uid), -1))
    return float(q[0]) if vals.ndim == 1 else q


# -- exact pruning by bounding boxes --------------------------------------------
#
# The quotient and the envelopes bound their chunk and sub-chunk pairs from the
# box gaps of metric._box_gaps; a relative slack on top of the gaps' deflation
# covers the rounding of the division, the sums and the products.

_BOUND_RTOL = 1e-9
# Points per sub-chunk of the quotient's refinement and of the envelopes, and
# chunk pairs refined or sub-pairs computed at a time: 2**14 distances keep a
# batch in cache (internal).
SUB = 8
_BATCH = 2 ** 14 // SUB ** 2


def _max_quotient(space: MetricSpace, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column c, max |values[i, c] - values[j, c]| / dist(ids[i], ids[j])
    over pairs of distinct ids, pruned by chunk boxes.

    A chunk pair's quotients are at most its bound, the largest value spread
    between the chunks over their box gap.  A seed of computed quotients
    gives each column a threshold, and the chunk pairs whose bounds fall
    below the thresholds in every column are skipped; the survivors' pairs
    of SUB-point sub-chunks are bounded alike and computed in batches.  A
    nan seed (a single chunk meets itself, or 0 / 0) and boxes that span the
    line (:func:`_chunks`) skip nothing.  Distinct ids at distance 0 have a
    zero gap, so their pairs are always computed; the error names the
    smallest position in any zero pair, with its smallest partner."""
    pos, lo, hi = _chunks(space, ids)
    pids, pvals = ids[pos], values[pos]
    c = len(pos)
    gap = _box_gaps(lo[:, None], hi[:, None], lo, hi)
    # The largest distance between two boxes is the gap between the boxes
    # with their corners swapped.
    far = _box_gaps(hi[:, None], lo[:, None], hi, lo)
    vmin, vmax = pvals.min(axis=1), pvals.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = np.maximum(vmax[:, None, :] - vmin[None, :, :], vmax[None, :, :] - vmin[:, None, :])
        bound = spread / gap[:, :, None] * (1.0 + _BOUND_RTOL)
        # The pair of largest spread lies at most `far` apart, so each chunk
        # pair holds a quotient of about spread / far or more.
        floor = spread / far[:, :, None]
    bound[gap == 0] = np.inf  # a zero-distance pair is never skipped
    floor[np.arange(c), np.arange(c)] = -np.inf
    # The seed: in each column, the computed quotients of the chunk pair of
    # highest floor, in one stacked dist_block call.  (The pair of highest
    # bound would be two neighbouring chunks of a curve, whose boxes nearly
    # touch.)
    a, b = np.divmod(np.argmax(floor.reshape(c * c, -1), axis=0), c)
    d = space.dist_block(pids[a], pids[b])
    col = np.arange(values.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        seed = np.max(np.abs(pvals[a, :, None, col] - pvals[b, None, :, col]) / d, axis=(1, 2))
    rows, cols = np.nonzero(np.triu(~np.all(bound < seed, axis=2)))
    spos, slo, shi = _chunks(space, ids, SUB)
    smin, smax = values[spos].min(axis=1), values[spos].max(axis=1)
    subs = np.arange(len(spos)).reshape(c, -1)  # chunk r holds the sub-chunks subs[r]
    best = np.zeros(values.shape[1])
    zeros = [np.empty((2, 0), dtype=int)]  # position pairs at distance 0, smaller first
    for r in range(0, len(rows), _BATCH):
        # The 16 sub-pairs of each chunk pair (on the diagonal, the upper
        # triangle), bounded alike; a zero gap's inf or nan is never skipped.
        sa, sb = subs[rows[r:r + _BATCH], :, None], subs[cols[r:r + _BATCH], None, :]
        sgap = _box_gaps(slo[sa], shi[sa], slo[sb], shi[sb])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sbound = np.maximum(smax[sa] - smin[sb], smax[sb] - smin[sa]) / sgap[..., None]
        keep = ~np.all(sbound * (1.0 + _BOUND_RTOL) < seed, axis=3) & (sa <= sb)
        pa, pb = spos[np.broadcast_to(sa, keep.shape)[keep]], spos[np.broadcast_to(sb, keep.shape)[keep]]
        for k0 in range(0, len(pa), _BATCH):
            a, b = pa[k0:k0 + _BATCH], pb[k0:k0 + _BATCH]
            d = space.dist_block(ids[a], ids[b])
            i = a[:, -1] >= b[:, 0]  # the diagonal sub-pairs and the last chunk's padding
            d[i] = np.where(a[i, :, None] == b[i, None, :], np.inf, d[i])  # a position meets itself
            with np.errstate(divide="ignore", invalid="ignore"):
                for k, v in enumerate(values.T):
                    q = v[a][:, :, None] - v[b][:, None, :]
                    np.abs(q, out=q)
                    q /= d
                    best[k] = np.maximum(best[k], np.max(q))
            if not np.all(np.isfinite(best)):
                # From a zero distance's batch on the maximum is not finite.
                z = np.nonzero(d == 0)
                zeros.append(np.sort([a[z[:2]], b[z[0], z[2]]], axis=0))
    zeros = np.concatenate(zeros, axis=1)
    if zeros.size:
        i, j = ids[zeros[:, np.lexsort(zeros[::-1])[0]]]
        raise InputError(f"distinct points {i} and {j} are at distance 0")
    return best


class LipschitzSample:
    """Boundary data for a real function on a finite subset, evaluable
    anywhere through McShane extension with the declared constant L.
    ``_lip`` is the data's Lipschitz constant when the caller has just
    computed it."""

    __slots__ = ("space", "support", "values", "L")

    def __init__(self, space: MetricSpace, support: tuple[int, ...],
                 values: tuple[float, ...], L: float, _lip: float | None = None):
        if len(support) != len(values):
            raise InputError("support and values lengths differ")
        if len(support) == 0:
            raise InputError("empty support")
        space.check_ids(support)
        if not (np.all(np.isfinite(values)) and np.isfinite(L)):
            raise InputError("sample values and L must be finite")
        if L < 0:
            raise InputError(f"Lipschitz constant must be nonnegative, got {L}")
        if len(support) >= 2:
            lc = lip_constant(support, values, space) if _lip is None else _lip
            if lc > L * (1 + _L_RTOL):
                raise InconsistentDataError(
                    f"declared L={L} below the data's Lipschitz constant {lc}"
                )
        for name, value in (("space", space), ("support", support), ("values", values), ("L", L)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def to_json(self) -> dict:
        return {"support": list(self.support), "values": list(self.values), "L": self.L}

    @classmethod
    def from_json(cls, doc, space: MetricSpace) -> "LipschitzSample":
        if not isinstance(doc, dict):
            raise InputError("Lipschitz sample must be a JSON object")
        try:
            support = tuple(space.check_id(i) for i in doc["support"])
            values = tuple(_number(v, "Lipschitz sample value") for v in doc["values"])
            L = _number(doc["L"], "Lipschitz sample L")
        except KeyError as exc:
            raise InputError(f"Lipschitz sample has no {exc.args[0]!r} key") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"Lipschitz sample entries must be numbers: {exc}") from None
        return cls(space=space, support=support, values=values, L=L)


def mcshane_extend(sample: LipschitzSample, query: int, envelope: str = "upper") -> float:
    """Evaluate the McShane extension of the sample at a query point.

    ``upper`` is min(values + L*dist), ``lower`` is max(values - L*dist),
    ``average`` their mean.  All three agree with the data on the support and
    are L-Lipschitz on the whole space.
    """
    return float(mcshane_extend_all(sample, [query], envelope=envelope)[0])


def mcshane_extend_all(sample: LipschitzSample, queries=None, envelope: str = "upper") -> np.ndarray:
    """Vectorized McShane extension at many query ids (default: all points).

    The pairs of query and support sub-chunks that cannot hold a query's
    minimum (maximum for ``lower``) are skipped; the results keep their bits
    (:func:`_envelopes`)."""
    space = sample.space
    if queries is None:
        queries = np.arange(space.n)
    if envelope not in ("upper", "lower", "average"):
        raise InputError(f"unknown envelope {envelope!r}")
    queries = space.check_ids(queries)
    signs = {"upper": (1.0,), "lower": (-1.0,), "average": (1.0, -1.0)}[envelope]
    sup, vals = np.asarray(sample.support, dtype=int), np.asarray(sample.values, dtype=float)
    found = _envelopes(space, sup, vals, sample.L, queries, signs)
    return 0.5 * (found[0] + found[1]) if envelope == "average" else found[0]


def _envelopes(space: MetricSpace, sup: np.ndarray, vals: np.ndarray, L: float,
               queries: np.ndarray, signs) -> list[np.ndarray]:
    """The upper envelope's minima (sign +1) or the lower envelope's maxima
    (sign -1) at the queries, one array per sign, 4 * BLOCK queries at a time.

    In sign form every term is sign * v + L * d and both envelopes take a
    minimum.  The terms of a pair of SUB-point query and support sub-chunks
    are at least the support sub-chunk's smallest sign * v plus L times the
    gap between their boxes.  Each query sub-chunk first computes its pair
    of smallest bound; the largest of its queries' minima there is at least
    each of their answers, so a pair whose bound exceeds it cannot hold one.
    The other pairs are computed in stacked batches of _BATCH pairs.  Where
    a term may overflow, or be 0 * inf = nan (L = 0 where distances
    overflow), the bounds are nan and every term is computed."""
    spos, slo, shi = (x[:-(-len(sup) // SUB)] for x in _chunks(space, sup, SUB))
    # Each sub-chunk's points down axis 0, so that the folds run over rows.
    sids, v = sup[spos].T.copy(), vals[spos].T.copy()
    out = [np.empty(len(queries)) for _ in signs]
    with np.errstate(over="ignore", invalid="ignore"):
        unbounded = not np.isfinite(np.max(np.abs(vals)) + L * space._extent)
    for start in range(0, len(queries), 4 * BLOCK):
        q = queries[start:start + 4 * BLOCK]
        qpos, qlo, qhi = (x[:-(-len(q) // SUB)] for x in _chunks(space, q, SUB))
        gaps = L * _box_gaps(qlo[:, None], qhi[:, None], slo, shi)
        if unbounded:
            gaps[:] = np.nan
        for sign, env in zip(signs, out):
            op, fold = (np.add, np.minimum) if sign > 0 else (np.subtract, np.maximum)

            def terms(a, b):
                # Each query's fold over support sub-chunk b, from distances
                # (support sub-chunk, pairs, query sub-chunk).
                d = space.dist_block(np.take(sids, b, axis=1)[:, :, None], q[qpos[a]])[:, :, 0]
                d = op(np.take(v, b, axis=1)[:, :, None], np.multiply(L, d, out=d), out=d)
                return fold.reduce(d, axis=0)

            bound = (sign * v).min(axis=0) + gaps
            first = np.argmin(bound, axis=1)
            seed = np.max(sign * terms(np.arange(len(first)), first), axis=1)
            # The seed's pair survives, as its bound is at most its terms.  The
            # pairs come in support order, so that of tied terms (0.0 and
            # -0.0) the fold keeps the last, as the full scan does.
            rows, cols = np.nonzero(~(bound > (seed + _BOUND_RTOL * np.abs(seed))[:, None]))
            found = np.empty((len(rows), SUB))
            for k in range(0, len(rows), _BATCH):
                found[k:k + _BATCH] = terms(rows[k:k + _BATCH], cols[k:k + _BATCH])
            best = fold.reduceat(found, np.flatnonzero(np.diff(rows, prepend=-1)))
            env[start:start + len(q)] = best.reshape(-1)[:len(q)]
    return out


class ProbeFamily(NamedTuple):
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
    distinct = list(dict.fromkeys(curve.samples.tolist()))  # first-visit order
    if n > len(distinct):
        warnings.warn(
            f"requested {n} probes but the curve has {len(distinct)} distinct samples; clamping",
            stacklevel=2,
        )
        n = len(distinct)
    ids = np.asarray(distinct, dtype=int)
    chosen = [0]
    mindist = space.dist_block(ids[:1], ids)[0]
    while len(chosen) < n:
        nxt = int(np.argmax(mindist))
        if mindist[nxt] == 0:
            # Every sample left is at distance 0 from a chosen one.
            k = next(k for k in range(len(ids)) if k not in chosen)
            c = chosen[int(np.argmin(space.dist_block(ids[k:k + 1], ids[chosen])[0]))]
            raise InputError(f"distinct points {ids[c]} and {ids[k]} are at distance 0")
        chosen.append(nxt)
        np.minimum(mindist, space.dist_block(ids[nxt:nxt + 1], ids)[0], out=mindist)
    return ProbeFamily(space=space, centers=tuple(int(ids[c]) for c in chosen))


def speed_via_probes(curve: SampledCurve, probes: ProbeFamily, t: float, window: float,
                     side: str = "both") -> float:
    """Supremum over probes of the absolute difference quotient of the
    post-composition at t, with the same window convention as metric_speed."""
    if not probes.space.same_as(curve.space):
        raise InputError("probe family and curve live on different spaces")
    i1, i2 = _window_indices(curve, t, window, side)
    v1 = probes.values_at(int(curve.samples[i1]))
    v2 = probes.values_at(int(curve.samples[i2]))
    return float(np.max(np.abs(v2 - v1)) / (curve.times[i2] - curve.times[i1]))


def local_lip_estimate(f, space: MetricSpace, x: int, radius: float) -> float:
    """Max difference quotient of f over the punctured ball of the given
    radius around x; 0 if the ball holds no other point."""
    if not radius > 0:
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
