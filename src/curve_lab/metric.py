"""Finite metric spaces: validation, pruned pair passes, and separated nets.

Points are integer identifiers ``0..n-1``.  A space is backed either by an
explicit distance matrix (``matrix`` / ``graph`` sources) or by a Euclidean
coordinate array with distances computed on demand, which keeps large
embedded point clouds cheap to hold.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, _float_array, _point_id, _scalar

# Relative slack for triangle-inequality checks: a matrix document holds
# distances computed in floating point elsewhere, and often printed with fewer
# digits, so a true metric can arrive with triangles off by rounding.
TRIANGLE_RTOL = 1e-9

# Rows per distance block of covering content (internal), which holds BLOCK x m
# distances at a time (times dim from 8 dimensions on), and chunks per box test
# of the greedy net.  block_pairs batches by _BATCH sub-chunk pairs instead.
BLOCK = 256

# Rows per block of the triangle check (internal): each middle point updates
# a TRIANGLE_BLOCK x n block of sums, which stays in cache.  On a symmetric
# 2000-point table 32 rows took 8.0 s against 8.2-9.3 s for 64 and 10.4 s
# for 128 (2-vCPU Xeon, numpy 2.4); at 1000 points 32 and 64 tie near 1.1 s.
TRIANGLE_BLOCK = 32

# -- exact pruning by bounding boxes --------------------------------------------
#
# The pruned kernels (the greedy net below, and the Lipschitz quotient and the
# McShane envelopes through block_pairs) split their ids, in order, into chunks
# of CHUNK points and bound every distance between two chunks from below by the
# gap between their bounding boxes, deflated to cover rounding.  A pair whose
# bound cannot change a maximum, a minimum or an admission is never passed to
# pair_distances, so the answer keeps its bits.  Matrix and graph spaces, and box
# extents that overflow, get boxes that span the line (_chunks).

# Points per chunk and per sub-chunk, and chunk pairs bounded or sub-chunk pairs
# computed at a time: 2**14 distances keep a batch in cache (internal).
CHUNK, SUB = 32, 8
_BATCH = 2 ** 14 // SUB ** 2
_GAP_RTOL = 1e-12


def _padded(n: int) -> np.ndarray:
    """Positions 0..n-1, padded to a multiple of CHUNK with copies of the last."""
    return np.minimum(np.arange(-(-n // CHUNK) * CHUNK), n - 1)


def _chunks(space: "MetricSpace", ids: np.ndarray, size: int = CHUNK):
    """Positions of consecutive chunks of ids, (c, size), padded by :func:`_padded`,
    and the chunks' bounding boxes' corners, lower and upper (dim, c).  Where
    boxes cannot bound (matrix and graph spaces, an extent that overflows, a
    space of one point) they span the line, (1, c): every gap is 0."""
    pos = _padded(len(ids))
    if space.coords is None or not (space._extent > 0 and math.isfinite(space._extent)):
        lo = np.full((1, len(pos) // size), -np.inf)
        return pos.reshape(-1, size), lo, -lo
    pts, starts = space.coords[ids[pos]].T, np.arange(0, len(pos), size)
    return pos.reshape(-1, size), np.minimum.reduceat(pts, starts, axis=1), np.maximum.reduceat(pts, starts, axis=1)


def _box_gaps(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Gaps between boxes of a and b, corners (dim, ...) that broadcast, deflated
    to stay below every computed distance between a point of one and a point
    of the other; with each box's corners swapped, the largest distances."""
    g = np.maximum(lo_a - hi_b, lo_b - hi_a)
    np.maximum(g, 0.0, out=g)
    g *= g
    return np.sqrt(np.add.reduce(g, axis=0)) * (1.0 - _GAP_RTOL)


def block_folds(fold, values: np.ndarray) -> np.ndarray:
    """``fold`` (a ufunc such as np.minimum) over the values, one per id in
    order, of each chunk and then each sub-chunk: indexed by block id."""
    subs = fold.reduceat(values[_padded(len(values))], np.arange(0, -(-len(values) // CHUNK) * CHUNK, SUB))
    return np.concatenate([fold.reduceat(subs, np.arange(0, len(subs), CHUNK // SUB)), subs])


def block_pairs(space: "MetricSpace", rows: np.ndarray, cols: np.ndarray):
    """The pruned pass over the pairs of ids rows x cols: far (r, c), the
    largest distances between their chunks, and ``scan(keep)``.

    ``keep(near, i, j)`` returns which block pairs to keep, of the shape of
    near, their gaps.  A block's id is its chunk's, 0..c-1, or c plus its
    SUB-point sub-chunk's.  First come the chunk pairs, i (r, 1), j (1, c);
    then, _BATCH kept ones at a time, their sub-chunk pairs, i (4, 1, k),
    j (1, 4, k), less sub-chunks of padding alone.  ``scan`` yields, _BATCH
    at a time, kept sub-chunk pairs' positions a, b (SUB, k), C-contiguous so
    that each batch's axis stays innermost, and their distances (SUB, SUB, k)
    ``pair_distances(rows[a][:, None], cols[b][None])``, row by row, in order."""
    per = CHUNK // SUB

    def blocks(ids):  # sub-chunk positions and boxes, chunk boxes, end of real sub-chunk ids
        pos, lo, hi = _chunks(space, ids, SUB)
        lo, hi = (x.reshape(len(x), -1, per).transpose(0, 2, 1).copy() for x in (lo, hi))
        return pos.reshape(-1, per, SUB), lo, hi, lo.min(axis=1), hi.max(axis=1), len(pos) // per - (-len(ids) // SUB)

    rpos, rlo, rhi, rlo1, rhi1, rend = blocks(rows)
    cpos, clo, chi, clo1, chi1, cend = blocks(cols) if cols is not rows else (rpos, rlo, rhi, rlo1, rhi1, rend)
    near = _box_gaps(rlo1[:, :, None], rhi1[:, :, None], clo1[:, None], chi1[:, None])
    u = np.arange(per)

    def scan(keep):
        chunk_rows, chunk_cols = keep(near, np.arange(len(rpos))[:, None], np.arange(len(cpos))[None]).nonzero()
        for r in range(0, len(chunk_rows), _BATCH):
            R, C = chunk_rows[r:r + _BATCH], chunk_cols[r:r + _BATCH]
            i, j = len(rpos) + per * R + u[:, None, None], len(cpos) + per * C + u[None, :, None]
            gaps = _box_gaps(rlo.take(R, axis=2)[:, :, None], rhi.take(R, axis=2)[:, :, None],  # by take, the
                             clo.take(C, axis=2)[:, None], chi.take(C, axis=2)[:, None])  # pairs stay innermost
            x, k, y = (keep(gaps, i, j) & (i < rend) & (j < cend)).transpose(0, 2, 1).nonzero()
            pa, pb = rpos[R[k], x], cpos[C[k], y]
            for s in range(0, len(pa), _BATCH):
                # Indexing keeps its index's memory order: copy the positions to C order once.
                a, b = np.ascontiguousarray(pa[s:s + _BATCH].T), np.ascontiguousarray(pb[s:s + _BATCH].T)
                yield a, b, space.pair_distances(rows[a][:, None], cols[b][None])

    return _box_gaps(rhi1[:, :, None], rlo1[:, :, None], chi1[:, None], clo1[:, None]), scan


class Violation(NamedTuple):
    axiom: str
    witness: tuple
    detail: str


class ValidationReport(NamedTuple):
    passed: bool
    violations: tuple[Violation, ...]


def validate_metric(candidate) -> ValidationReport:
    """Check a raw distance table against the metric axioms.

    Returns a report that passes iff the table has a zero diagonal, is
    symmetric, is positive off the diagonal, and satisfies the triangle
    inequality up to a relative 1e-9 slack.  Each violated axiom reports at
    least one witnessing tuple, and at most 8, each violation once: on a
    symmetric table the pair (j, i) has the value of (i, j), and the
    triangle (k, i, j) the sums of (i, k, j), so a mirror is no second
    violation and only pairs with i < j and triangles with k >= i are
    listed.  Non-square or non-finite tables raise
    :class:`InputError`.
    """
    d = _float_array(candidate, "distance table")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance table must be square, got shape {d.shape}")
    if d.size == 0:
        raise InputError("distance table is empty")

    n = d.shape[0]
    scale = float(np.max(np.abs(d))) or 1.0
    tol = TRIANGLE_RTOL * scale
    asym = np.argwhere(np.triu(d != d.T, 1))
    symmetric = not len(asym)
    nonpos = d <= 0
    np.fill_diagonal(nonpos, False)
    violations = [Violation("zero-diagonal", (int(i),), f"dist({i},{i}) = {float(d[i, i])!r}")
                  for i in np.flatnonzero(np.diag(d) != 0)[:8]]
    violations += [Violation("symmetry", (int(i), int(j)), f"dist({i},{j})={float(d[i, j])!r} != dist({j},{i})={float(d[j, i])!r}")
                   for i, j in asym[:8]]
    violations += [Violation("positivity", (int(i), int(j)), f"dist({i},{j})={float(d[i, j])!r} <= 0")
                   for i, j in np.argwhere(np.triu(nonpos) if symmetric else nonpos)[:8]]

    # Each row block gets the min-plus square ``min_j d[i, j] + d[j, k]``; as
    # rounding is monotone, d[i, k] minus that minimum exceeds tol exactly
    # when one of the differences does, which marks the violated pairs (i, k).
    # Witnesses j are then sought in the marked columns alone, in the order
    # the exhaustive triple scan would visit them.  A symmetric table needs
    # only the columns k >= i, so a block's columns start at its first row.
    # A sum that overflows to inf is no shortcut,
    # so overflow is not an error here.
    triangles = []
    with np.errstate(over="ignore"):
        for lo in range(0, n, TRIANGLE_BLOCK):
            if len(triangles) == 8:
                break
            hi = min(lo + TRIANGLE_BLOCK, n)
            first = lo if symmetric else 0
            closure = np.full((hi - lo, n - first), np.inf)
            sums = np.empty_like(closure)
            for j in range(n):
                np.add.outer(d[lo:hi, j], d[j, first:], out=sums)
                np.minimum(closure, sums, out=closure)
            bad = d[lo:hi, first:] - closure > tol
            if symmetric:
                bad = np.triu(bad)
            for r in np.flatnonzero(bad.any(axis=1)):
                if len(triangles) == 8:
                    break
                i, ks = int(lo + r), np.flatnonzero(bad[r]) + first
                slack = d[i, ks] - (d[i][:, None] + d[:, ks])  # slack[j, c] = d(i,k) - d(i,j) - d(j,k), k = ks[c]
                triangles += [(i, int(ks[c]), int(j)) for j, c in np.argwhere(slack > tol)[:8 - len(triangles)]]
    violations += [Violation("triangle", (i, k, j),
                             f"dist({i},{k})={float(d[i, k])!r} > dist({i},{j})+dist({j},{k})={float(d[i, j] + d[j, k])!r}")
                   for i, k, j in triangles]
    return ValidationReport(passed=not violations, violations=tuple(violations))


def space_document(doc) -> tuple[str, list, int]:
    """The kind, data and point count of a parsed space document,
    ``{"kind": "matrix" | "euclidean" | "graph", "data": [...]}``; a graph
    gives ``n`` or a ``points`` list of labels, which are checked, not kept.
    Entries of ``data`` are checked later."""
    if not isinstance(doc, dict) or "data" not in doc:
        raise InputError("space document must be a JSON object with a 'data' key")
    kind, data, labels = doc.get("kind"), doc["data"], doc.get("points")
    if kind not in ("matrix", "euclidean", "graph"):
        raise InputError(f"unknown space kind {kind!r}")
    if not isinstance(data, list):
        raise InputError(f"space 'data' must be a list, got {type(data).__name__}")
    if not isinstance(labels, (list, type(None))):
        raise InputError(f"space 'points' must be a list of labels, got {type(labels).__name__}")
    n = len(data) if kind != "graph" else doc.get("n", None if labels is None else len(labels))
    if type(n) is not int:
        raise InputError(f"graph space needs an integer 'n' or a 'points' list, got {n!r}")
    if labels is not None and len(labels) != n:
        raise InputError(f"space has {n} points but {len(labels)} 'points' labels")
    return kind, data, n


def graph_edges(n: int, edges) -> dict[tuple[int, int], float]:
    """The lightest weight of each edge ``[i, j, weight]`` of a graph on n
    nodes, keyed ``(min(i, j), max(i, j))``.  A malformed edge, a weight that
    is not positive and finite, a disconnected graph and an ``n`` below 1 are
    input errors."""
    n = _scalar(n, "graph node count", 1, strict=False, integer=True)
    best: dict[tuple[int, int], float] = {}
    for e in edges:
        try:
            i, j, weight = e
            i, j, weight = _point_id(i), _point_id(j), _scalar(weight, "weight", 0)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"graph edge {e!r} must be [i, j, weight]") from exc
        except InputError as exc:
            raise InputError(f"graph edge {e!r}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i},{j}) out of range for {n} nodes")
        key = (min(i, j), max(i, j))
        best[key] = min(weight, best.get(key, np.inf))
    # Union-find: each edge that joins two components leaves one fewer.
    parent, components = list(range(n)), n
    for i, j in best:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[i], components = j, components - (i != j)
    if components > 1:
        raise InputError("graph is disconnected; shortest-path metric is not finite")
    return best


def validate_space(doc) -> ValidationReport:
    """Check a parsed space document (:func:`space_document`) against the
    metric axioms; a document that does not load is an input error.

    A ``matrix`` gets :func:`validate_metric`'s scan.  The other kinds skip
    its O(n^3) triangle pass where they are metrics by construction:

    - Shortest paths on a connected positive graph are a metric.  Each is a
      left fold over a simple path, so none overflows while the edge weights
      sum below half the largest float.  Above that the table is built, and
      one that overflows is an input error.
    - A loaded ``euclidean`` space has finite coordinates without
      duplicates, so its distances are a metric unless rounding breaks
      them: a squared difference that under- or overflows can put distinct
      points at distance 0 or inf, or skew a triangle by more than the
      slack.  Distances whose squares are normal floats rule that out: under
      a finite box extent none overflows, and every point joins the greedy
      net at the root of the smallest normal iff no two lie closer than
      that.  Otherwise the full table is scanned, and an overflowing
      distance is reported as a non-finite entry.
    """
    kind, data, n = space_document(doc)
    if kind == "graph":
        try:
            small = math.fsum(graph_edges(n, data).values()) < np.finfo(float).max / 2
        except OverflowError:
            small = False
        if not small:
            MetricSpace.from_json(doc)
        return ValidationReport(passed=True, violations=())
    if kind == "euclidean":
        space = MetricSpace.from_json(doc)
        with np.errstate(over="ignore"):
            smallest = np.sqrt(np.finfo(float).tiny)
            if (np.isfinite(space._extent)
                    and len(maximal_separated_net(space, range(space.n), smallest).members) == space.n):
                return ValidationReport(passed=True, violations=())
            ids = np.arange(space.n)
            data = space.pair_distances(ids[:, None], ids)
    return validate_metric(data)


class _Frozen:
    """A value that is set once, in its constructor or a first-use cache,
    through :meth:`_set`, and is read-only after."""

    def _set(self, **attrs) -> None:
        """Store each attribute; an ndarray as a read-only copy, so that the
        caller's array stays writable and cannot change the value."""
        for name, value in attrs.items():
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class MetricSpace(_Frozen):
    """An immutable finite metric space with O(1)-ish distance lookups.

    :meth:`pair_distances` is the one distance formula, and every distance
    the package reads comes from it.  Lipschitz constants and McShane
    extension take it through :func:`block_pairs`, ``_BATCH`` SUB x SUB
    sub-chunk pairs at a time; greedy nets take one chunk's rows at a time,
    and covering content row blocks of at most ``BLOCK`` points.  None holds
    m x m distances over m points (times the dimension from 8 dimensions on).
    """

    def __init__(self, *, dmat=None, coords=None, _validated: bool = False):
        if (dmat is None) == (coords is None):
            raise InputError("exactly one of dmat/coords must be given")
        if dmat is not None:
            dmat = _float_array(dmat, "distance table")
            if not _validated:
                report = validate_metric(dmat)
                if not report.passed:
                    first = report.violations[0]
                    raise InputError(f"not a metric: {first.axiom} violated, witness {first.witness}: {first.detail}")
            # _extent is an upper bound on every distance.
            self._set(_dmat=dmat, coords=None, n=dmat.shape[0], _extent=float(dmat.max()))
        else:
            coords = _float_array(coords, "coordinates", ndim=2)
            # Euclidean distances satisfy the axioms automatically except
            # positivity, which fails for duplicated points.
            # Sorted rows put equal points (0.0 == -0.0) next to each other;
            # points with no coordinates are all equal.
            rows = coords[np.lexsort(coords.T)] if coords.shape[1] else coords
            dup = int(np.count_nonzero(np.all(rows[1:] == rows[:-1], axis=1)))
            if dup:
                raise InputError(f"{dup} duplicated point(s) in Euclidean embedding (zero distance at i != j)")
            # The same bound from the diagonal of the points' bounding box; inf
            # if its square overflows, and then boxes cannot bound (_chunks).
            with np.errstate(over="ignore"):
                box = np.ptp(coords, axis=0) if len(coords) else np.zeros(0)
                extent = float(np.sqrt(np.sum(np.square(box))))
            self._set(_dmat=None, coords=coords, n=coords.shape[0], _extent=extent)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix) -> "MetricSpace":
        return cls(dmat=matrix)

    @classmethod
    def from_points(cls, coords) -> "MetricSpace":
        return cls(coords=coords)

    @classmethod
    def from_graph(cls, n: int, edges) -> "MetricSpace":
        """Build a space from a weighted undirected edge list via all-pairs
        shortest paths, cached at load time."""
        best = graph_edges(n, edges)
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path
        rows, cols = [k[0] for k in best], [k[1] for k in best]
        graph = coo_matrix((list(best.values()), (rows, cols)), shape=(n, n)).tocsr()
        dmat = shortest_path(graph, directed=False)
        if not np.all(np.isfinite(dmat)):  # graph_edges proved it connected
            raise InputError("graph shortest-path distance overflows")
        dmat = np.minimum(dmat, dmat.T)  # symmetrize exact float asymmetries
        return cls(dmat=dmat, _validated=True)

    @classmethod
    def from_json(cls, doc) -> "MetricSpace":
        """Build a space from a parsed space document (:func:`space_document`)."""
        kind, data, n = space_document(doc)
        if kind == "matrix":
            return cls.from_matrix(data)
        if kind == "euclidean":
            return cls.from_points(data)
        return cls.from_graph(n, data)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    # Views of pair_distances that nothing in the package calls, kept only
    # because perfbench's span tracer wraps them by name.
    def dist(self, i: int, j: int) -> float:
        return float(self.pair_distances(i, j))

    def dist_row(self, i: int, ids) -> np.ndarray:
        return self.pair_distances(i, ids)

    def submatrix(self, ids) -> np.ndarray:
        return self.pair_distances(np.asarray(ids, dtype=int)[:, None], ids)

    def pair_distances(self, ids_a, ids_b) -> np.ndarray:
        """Distances between the points of id arrays that broadcast together;
        ``pair_distances(a[:, None], b)`` is the block from every id of a
        (rows) to every id of b (columns)."""
        ids_a = np.asarray(ids_a, dtype=int)
        ids_b = np.asarray(ids_b, dtype=int)
        if self._dmat is not None:
            return self._dmat[ids_a, ids_b]
        dim = self.coords.shape[1]
        if dim >= 8:
            # numpy sums 8 or more squares pairwise; the broadcast norm keeps
            # that order.
            return np.linalg.norm(self.coords[ids_b] - self.coords[ids_a], axis=-1)
        # Below 8 terms numpy's sum is sequential, so accumulating one
        # coordinate at a time gives the same bits. It is also faster: a
        # 256 x 1000 block of 2-D points takes 1.8 ms against 13.8 ms for the
        # broadcast norm (Xeon, numpy 2.4), whose reduction over a length-2
        # axis costs one inner-loop call per distance.  Gathering each
        # coordinate by itself keeps the operands contiguous: a one-row
        # block of 1000 2-D points takes 19 us against 42 us for slicing
        # columns of the gathered points.
        acc = None
        for k in range(dim):
            ck = self.coords[:, k]
            diff = ck[ids_a] - ck[ids_b]
            diff *= diff
            if acc is None:
                acc = diff
            else:
                acc += diff
        if acc is None:  # no coordinates: a single point
            return np.zeros(np.broadcast_shapes(ids_a.shape, ids_b.shape))[()]
        return np.sqrt(acc, out=acc if acc.ndim else None)  # scalar ids give a scalar

    def check_id(self, i: int) -> int:
        i = _point_id(i)
        if not 0 <= i < self.n:
            raise InputError(f"point id {i} out of range [0, {self.n})")
        return i

    def check_ids(self, ids) -> np.ndarray:
        """:meth:`check_id` over a sequence, as one integer array; the error
        names the first bad id in input order."""
        try:
            arr = np.asarray(ids)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if (arr is None or arr.ndim != 1 or arr.dtype.kind not in "iu"
                or not isinstance(ids, (np.ndarray, range)) and not {bool, np.bool_}.isdisjoint(map(type, ids))):
            # Floats, bools (numpy reads [0, True] as ints), strings,
            # generators and the like convert one by one through check_id.
            if not np.iterable(ids):
                raise InputError(f"point ids must be a sequence, got {ids!r}")
            return np.asarray([self.check_id(i) for i in ids], dtype=int)
        bad = (arr < 0) | (arr >= self.n)
        if bad.any():
            self.check_id(arr[np.argmax(bad)])
        return arr.astype(int, copy=False)

    def same_as(self, other: "MetricSpace") -> bool:
        """True if other is this space or holds equal coordinates or an
        equal distance table."""
        if other is self:
            return True
        mine = self._dmat if self.coords is None else self.coords
        theirs = other._dmat if other.coords is None else other.coords
        return (self.coords is None) == (other.coords is None) and np.array_equal(mine, theirs)


class SeparatedNet(NamedTuple):
    """A maximal epsilon-separated subset of the host's points."""

    host: MetricSpace
    epsilon: float
    members: tuple[int, ...]


def maximal_separated_net(space: MetricSpace, candidates, epsilon: float) -> SeparatedNet:
    """Greedy scan in candidate order: admit a point iff it lies at distance
    >= epsilon from every point admitted so far.

    The result is epsilon-separated and maximal over the candidate set; the
    greedy order makes it deterministic and idempotent on its own output.

    The scan takes the candidates one chunk at a time, with the chunks'
    boxes (:func:`_chunks`).  A member in a chunk whose box gap to the
    candidates' chunk is at least epsilon lies at a computed distance of at
    least epsilon from each of them, so it rejects none, and only the other
    members are passed to pair_distances.  A chunk whose candidates lie at least
    epsilon apart admits every candidate that no earlier member rejects, all
    at once; otherwise its candidates are admitted one by one, on the
    outcomes of the same comparisons with epsilon.  Where boxes cannot bound,
    they span the line: every gap is 0, so every member is passed.  An
    ``epsilon`` > 0 may be infinite, which admits the first candidate alone.
    """
    epsilon = _scalar(epsilon, "epsilon", 0, infinite=True)
    candidates = space.check_ids(candidates)
    m = len(candidates)
    if not m:
        raise InputError("candidate list is empty")
    _, lo, hi = _chunks(space, candidates)
    members = np.empty(m, dtype=int)
    owner = np.empty(m, dtype=int)  # the chunk of each member
    count = 0
    bits = 1 << np.arange(CHUNK)
    for r in range(lo.shape[1]):
        if r % BLOCK == 0:
            # Which earlier chunks lie within epsilon, for BLOCK chunks at a
            # time.
            within = _box_gaps(lo[:, r:r + BLOCK, None], hi[:, r:r + BLOCK, None],
                               lo[:, None, :r + BLOCK], hi[:, None, :r + BLOCK]) < epsilon
        block = candidates[r * CHUNK:(r + 1) * CHUNK]
        k = len(block)
        # One block of distances: the chunk to itself, then to the members
        # of the chunks within epsilon of it.
        near = members[:count][within[r % BLOCK][owner[:count]]]
        d = space.pair_distances(block[:, None], np.concatenate((block, near)))
        admit = d[:, k:].min(axis=1, initial=np.inf) >= epsilon
        close = d[:, :k] < epsilon
        # The diagonal is 0 and always close.
        if np.count_nonzero(close) > k:
            # Bit j of rejects[i] is set iff candidate i would reject
            # candidate j; a candidate is admitted iff no earlier member
            # rejects it.
            rejects = np.dot(close, bits[:k]).tolist()
            ok, admit, rejected = admit.tolist(), [], 0
            for i in range(k):
                if ok[i] and not rejected >> i & 1:
                    admit.append(i)
                    rejected |= rejects[i]
        admitted = block[admit]
        members[count:count + len(admitted)] = admitted
        owner[count:count + len(admitted)] = r
        count += len(admitted)
    return SeparatedNet(host=space, epsilon=epsilon, members=tuple(members[:count].tolist()))

