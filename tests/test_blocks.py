"""The blocked pairwise kernels against brute-force n x n references.

Every kernel routes its distances through ``MetricSpace.pair_distances``,
the one distance formula: in row blocks of ``BLOCK`` through its
``dist_block`` view, or in batches of sub-chunk pairs of shape (SUB, SUB, k);
maxima, minima and argmins over identical distances are exact, so each result
must equal its reference bit for bit, including at the block edges."""
from functools import lru_cache

import numpy as np
import pytest

from curve_lab import (InconsistentDataError, InputError, LipschitzSample, MetricSpace, SampledCurve,
                       hausdorff1_content, lip_constant, maximal_separated_net,
                       mcshane_extend_all, sawtooth_witness, triangle_wave)
from curve_lab import lipschitz, witnesses
from curve_lab.lipschitz import SUB
from curve_lab.metric import _BATCH, BLOCK, CHUNK
from conftest import euclidean_curve, line_space

SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _points(n, dim=2, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, dim))


@lru_cache(maxsize=None)
def _spaces(n):
    coords = MetricSpace.from_points(_points(n))
    return [coords, MetricSpace.from_matrix(coords.submatrix(range(n)))]


@lru_cache(maxsize=None)
def _graph(n):
    """A path with random weights and a few chords of weight 0.05."""
    rng = np.random.default_rng(n)
    edges = [(i, i + 1, w) for i, w in enumerate(rng.uniform(0.001, 0.02, n - 1))]
    edges += [(i, j, 0.05) for i, j in rng.integers(0, n, (n // 4, 2)) if i != j]
    return MetricSpace.from_graph(n, edges)


def _rows(space, ids_a, ids_b):
    return np.stack([space.dist_row(int(i), ids_b) for i in ids_a])


def _full(space):
    return _rows(space, range(space.n), np.arange(space.n))


# -- references: the row-at-a-time algorithms the blocked kernels replace ------


def _ref_lip(space, values):
    d = _full(space)
    dv = np.abs(values[:, None] - values[None, :])
    iu = np.triu_indices(space.n, k=1)
    return float(np.max(dv[iu] / d[iu]))


def _ref_net(space, candidates, eps):
    members = []
    for c in candidates:
        if not members or np.min(space.dist_row(int(c), members)) >= eps:
            members.append(int(c))
    return tuple(members)


def _ref_content(space, target, delta):
    target = np.asarray(target, dtype=int)
    centers = list(_ref_net(space, target, delta / 2.0))
    total = 0.0
    if len(centers) > 1:
        gaps = space.pair_distances(centers[:-1], centers[1:])
        total += float(np.sum(np.minimum(gaps, delta)))
    cluster = target
    if len(centers) > 1:
        nearest = np.argmin(_rows(space, centers, target), axis=0)
        cluster = target[nearest == len(centers) - 1]
    if len(cluster) > 1:
        total += float(np.max(_rows(space, cluster, cluster)))
    return total


# -- dist_block -------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 10])
def test_dist_block_matches_stacked_rows_on_coordinates(dim):
    space = MetricSpace.from_points(_points(300, dim, seed=dim) * 10.0 ** np.arange(dim) / dim)
    rng = np.random.default_rng(dim)
    for rows, cols in [(300, 300), (1, 300), (300, 1), (37, 5), (2, 2)]:
        a = rng.choice(300, size=rows)
        b = rng.choice(300, size=cols)
        assert np.array_equal(space.dist_block(a, b), _rows(space, a, b))


def test_dist_block_matches_stacked_rows_on_a_matrix():
    space = _spaces(40)[1]
    a, b = [3, 0, 39, 3], list(range(40))
    assert np.array_equal(space.dist_block(a, b), _rows(space, a, b))
    assert np.array_equal(space.submatrix(a), space.dist_block(a, a))


def test_empty_block_has_the_right_shape():
    space = MetricSpace.from_points(_points(5))
    assert space.dist_block([], [0, 1]).shape == (0, 2)
    assert space.dist_block([0, 1, 2], []).shape == (3, 0)


# -- kernels at the block edges -------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_lip_constant_matches_reference(n):
    values = np.random.default_rng(n).standard_normal(n)
    for space in _spaces(n):
        assert lip_constant(range(n), values, space) == _ref_lip(space, values)


@pytest.mark.parametrize("n", SIZES)
def test_lip_constant_with_consistent_duplicates(n):
    space = _spaces(n)[0]
    values = np.random.default_rng(n).standard_normal(n)
    ids = np.concatenate([np.arange(n)[::-1], np.arange(0, n, 3)])
    assert lip_constant(ids, values[ids], space) == _ref_lip(space, values)


def test_lip_constant_rejects_conflicting_duplicates():
    n = BLOCK + 1
    space = _spaces(n)[0]
    ids = list(range(n)) + [BLOCK]
    values = list(np.linspace(0.0, 1.0, n)) + [5.0]
    with pytest.raises(InconsistentDataError):
        lip_constant(ids, values, space)


@pytest.mark.parametrize("n", SIZES)
def test_mcshane_envelopes_match_reference(n):
    rng = np.random.default_rng(n)
    for space in _spaces(n):
        support = rng.choice(n, size=max(2, n // 2), replace=False)
        values = rng.standard_normal(len(support))
        L = lip_constant(support, values, space)
        sample = LipschitzSample(space, tuple(int(s) for s in support),
                                 tuple(float(v) for v in values), L)
        d = _rows(space, support, np.arange(n))
        upper = np.min(values[:, None] + L * d, axis=0)
        lower = np.max(values[:, None] - L * d, axis=0)
        assert np.array_equal(mcshane_extend_all(sample, envelope="upper"), upper)
        assert np.array_equal(mcshane_extend_all(sample, envelope="lower"), lower)
        assert np.array_equal(mcshane_extend_all(sample, envelope="average"),
                              0.5 * (upper + lower))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("eps", [0.01, 0.08, 0.5, 10.0])
def test_maximal_separated_net_matches_reference(n, eps):
    rng = np.random.default_rng(n)
    for space in _spaces(n) + [_graph(n)]:
        candidates = rng.permutation(np.concatenate([np.arange(n), np.arange(0, n, 2)]))
        net = maximal_separated_net(space, candidates, eps)
        assert net.members == _ref_net(space, candidates, eps)


@pytest.mark.parametrize("eps", [1.0, 2.0, 3.0])
def test_net_admits_at_exactly_epsilon(eps):
    n = 2 * BLOCK + 3
    space = line_space(range(n))
    net = maximal_separated_net(space, range(n), eps)
    assert net.members == tuple(range(0, n, int(eps))) == _ref_net(space, range(n), eps)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0, 10.0])
def test_hausdorff1_content_matches_reference(n, delta):
    rng = np.random.default_rng(n)
    for space in _spaces(n):
        target = rng.permutation(np.concatenate([np.arange(n), np.arange(0, n, 3)]))
        assert hausdorff1_content(space, target, delta) == _ref_content(space, target, delta)


@pytest.mark.parametrize("n", SIZES)
def test_chord_arc_defect_matches_reference(n):
    pts = _points(n, seed=n)
    curve = euclidean_curve(pts)
    s = curve.arc_coordinates()
    d = _full(curve.space)
    np.fill_diagonal(d, np.inf)
    ref = max(1.0, float(np.max(np.abs(s[:, None] - s[None, :]) / d))) - 1.0
    assert witnesses._chord_arc_defect(curve.space, curve.samples, s) == ref


# -- sawtooth computes its Lipschitz constant once ---------------------------------------


def test_sawtooth_computes_lip_constant_once(monkeypatch):
    calls = []
    original = lipschitz.lip_constant

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # witnesses imports lip_constant when it calls it, so this patch reaches it.
    monkeypatch.setattr(lipschitz, "lip_constant", counting)
    curve = euclidean_curve(_points(50, seed=1))
    witness = sawtooth_witness(curve, 0.1)
    assert len(calls) == 1
    assert witness.realization.L == max(1.0, witness.certificates["lip_constant"])



# -- one pass for several functions; the last H1 cluster from nearby points ------------


@pytest.mark.parametrize("n", SIZES)
def test_lip_constant_of_columns_matches_per_column_calls(n):
    rng = np.random.default_rng(n)
    for space in _spaces(n):
        for k in (1, 2, 3):
            values = rng.standard_normal((n, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
            ids = np.concatenate([rng.permutation(n), rng.choice(n, size=n // 3)])
            got = lip_constant(ids, values[ids], space)
            assert got.shape == (k,)
            for c in range(k):
                assert got[c] == lip_constant(ids, values[ids, c], space) == _ref_lip(space, values[:, c])


def test_lip_constant_of_columns_rejects_a_conflict_in_any_column():
    n = BLOCK + 1
    space = _spaces(n)[0]
    ids = list(range(n)) + [7]
    values = np.column_stack([np.linspace(0.0, 1.0, n + 1), np.zeros(n + 1)])
    values[-1] = values[7]
    assert lip_constant(ids, values, space).shape == (2,)
    values[-1, 1] = 1.0
    with pytest.raises(InconsistentDataError, match="point 7"):
        lip_constant(ids, values, space)
    with pytest.raises(InconsistentDataError):
        lip_constant(ids, values[:, 1], space)
    assert lip_constant(ids, values[:, 0], space) == _ref_lip(space, values[:n, 0])
    assert np.array_equal(lip_constant([3, 3], np.ones((2, 2)), space), [0.0, 0.0])


def test_lip_constant_rejects_distinct_points_at_distance_zero():
    # 1e-200 squared underflows, so the two points are distinct but at 0.
    space = MetricSpace.from_points([[0.0, 0.0], [1.0, 1.0], [1e-200, 0.0]])
    assert space.dist(0, 2) == 0.0
    for values in ([0.0, 1.0, 0.0], [0.0, 1.0, 0.5], np.zeros((3, 2))):
        with pytest.raises(InputError, match="points 0 and 2 are at distance 0"):
            lip_constant([0, 1, 2], values, space)


def _clusters(space, target, delta):
    centers = maximal_separated_net(space, target, delta / 2.0).members
    nearest = np.argmin(_rows(space, centers, np.asarray(target)), axis=0)
    return centers, np.bincount(nearest, minlength=len(centers))


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
def test_hausdorff1_content_last_cluster_of_several_points(delta):
    xs = np.linspace(0.0, 1.0, 2 * BLOCK + 3)
    for space in (line_space(xs), MetricSpace.from_points(np.column_stack([xs, xs ** 2]))):
        target = np.arange(space.n)
        centers, sizes = _clusters(space, target, delta)
        assert len(centers) > 1 and sizes[-1] >= 3
        assert hausdorff1_content(space, target, delta) == _ref_content(space, target, delta)
        # Targets in reverse order put the last center at the other end.
        target = target[::-1]
        assert hausdorff1_content(space, target, delta) == _ref_content(space, target, delta)


def test_hausdorff1_content_with_one_center():
    space = _spaces(BLOCK + 1)[0]
    target = np.concatenate([np.arange(BLOCK + 1), [4, 4, 9]])
    centers, _ = _clusters(space, target, 10.0)
    assert len(centers) == 1
    content = hausdorff1_content(space, target, 10.0)
    assert content == _ref_content(space, target, 10.0) == float(np.max(_full(space)))


# -- box-pruned kernels on coordinate spaces ---------------------------------------------

PRUNE_SIZES = [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3]


def _helix(n, dim, seed=0):
    """Curve-ordered points: a line in 1-D, else a spiral helix of two
    turns, rotated into dim dimensions when dim > 3."""
    t = np.linspace(0.0, 1.0, n)
    if dim == 1:
        return 3.0 * t[:, None]
    theta = 4.0 * np.pi * t
    base = np.column_stack([(0.2 + t) * np.cos(theta), (0.2 + t) * np.sin(theta), t])[:, :dim]
    if dim <= 3:
        return base
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return np.pad(base, ((0, 0), (0, dim - 3))) @ q


def _sawtooth_columns(space):
    """The two columns sawtooth_witness hands to lip_constant: the triangle
    wave of the arc coordinate and the arc coordinate itself."""
    curve = SampledCurve(space, np.linspace(0.0, 1.0, space.n), np.arange(space.n))
    s = curve.arc_coordinates()
    return np.column_stack([triangle_wave(s, 0.05), s])


def _matrix_twin(space):
    return MetricSpace.from_matrix(space.submatrix(range(space.n)))


def _ref_quotients(space, ids, values):
    ids = np.asarray(ids)
    d = _rows(space, ids, ids)
    distinct = ids[:, None] != ids[None, :]
    return np.array([np.max(np.abs(values[:, None, c] - values[None, :, c])[distinct] / d[distinct])
                     for c in range(values.shape[1])])


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("n", PRUNE_SIZES)
def test_pruned_quotient_matches_reference(n, dim):
    points = MetricSpace.from_points(_helix(n, dim, seed=n))
    ids = np.concatenate([np.arange(n), np.arange(0, n, 3)])
    rng = np.random.default_rng(n + dim)
    ordered = _sawtooth_columns(points)
    if dim == 1:
        # On a line the arc coordinate has quotient 1 at every pair, so no
        # chunk pair can be skipped; a finer wave takes its place.
        ordered[:, 1] = triangle_wave(ordered[:, 1], 0.02)
    # Distances to two points are 1-Lipschitz with quotients near 1 in
    # every direction: most chunk pairs survive, and their sub-chunk pairs
    # are computed.
    far = np.column_stack([np.linalg.norm(points.coords - points.coords[k], axis=1) for k in (0, n // 2)])
    # The matrix twin holds the same distances; its boxes span the line.
    for space in (points, _matrix_twin(points)):
        for values in (ordered, far, rng.standard_normal((n, 2))):
            got = lip_constant(ids, values[ids], space)
            assert np.array_equal(got, _ref_quotients(space, np.arange(n), values))
            for c in range(2):
                assert lip_constant(ids, values[ids, c], space) == got[c]


def test_pruned_quotient_rejects_conflicting_duplicates():
    n = 2 * BLOCK + 3
    space = MetricSpace.from_points(_helix(n, 2))
    values = _sawtooth_columns(space)
    ids = np.concatenate([np.arange(n), [n - 5]])
    bad = np.vstack([values, values[n - 5] + [0.0, 1.0]])
    with pytest.raises(InconsistentDataError, match=f"point {n - 5}"):
        lip_constant(ids, bad, space)


def test_pruned_quotient_is_exact_on_collinear_points_in_8d():
    # Values ramp up within each chunk and drop at its end, so the largest
    # quotient of two adjacent chunks is that of their closest pair, whose
    # distance is the box gap.  dist_block sums 8 squares pairwise and the
    # gap sums them one by one: without the slack, a gap rounded above the
    # distance would skip the pair that holds the maximum.
    rng = np.random.default_rng(8)
    n = 2 * BLOCK + 3
    for _ in range(20):
        u = rng.uniform(0.5, 2.0, size=8)
        t = np.cumsum(rng.uniform(1.0, 2.0, size=n))
        space = MetricSpace.from_points(t[:, None] * u)
        ramp = (np.arange(n) % CHUNK) / CHUNK
        values = np.column_stack([ramp, -2.0 * ramp])
        assert np.array_equal(lip_constant(np.arange(n), values, space),
                              _ref_quotients(space, np.arange(n), values))


def test_pruned_quotient_finds_zero_distance_in_a_far_chunk():
    # The first sample sits at the origin and the last 1e-200 away: distinct
    # points at distance 0, CHUNKs apart along the curve.
    n = 2 * BLOCK + 3
    pts = _helix(n, 2)
    pts[0] = 0.0
    space = MetricSpace.from_points(np.vstack([pts, [[1e-200, 0.0]]]))
    values = np.vstack([_sawtooth_columns(MetricSpace.from_points(pts)), [[0.0, 0.0]]])
    values[0] = 0.0
    for v in (values, values[:, 0], values[:, 1] + np.arange(n + 1)):
        with pytest.raises(InputError, match=f"distinct points 0 and {n} are at distance 0"):
            lip_constant(np.arange(n + 1), v, space)


@pytest.fixture
def blocks(monkeypatch):
    """Records the shapes of the pair_distances calls, which dist_block's
    blocks reach too."""
    shapes = []
    original = MetricSpace.pair_distances

    def recording(self, ids_a, ids_b):
        out = original(self, ids_a, ids_b)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(MetricSpace, "pair_distances", recording)
    return shapes


# One below, at and one above a sub-chunk edge, inside the second chunk and
# in the last chunk, whose padding then fills part of a sub-chunk.
@pytest.mark.parametrize("n", [CHUNK + SUB - 1, CHUNK + SUB, CHUNK + SUB + 1,
                               3 * CHUNK + 2 * SUB - 1, 3 * CHUNK + 2 * SUB, 3 * CHUNK + 2 * SUB + 1])
def test_refined_quotient_matches_reference_at_sub_chunk_edges(n):
    space = MetricSpace.from_points(_helix(n, 2, seed=n))
    far = np.column_stack([np.linalg.norm(space.coords - space.coords[k], axis=1) for k in (0, n // 2)])
    noise = np.random.default_rng(n).standard_normal((n, 2))
    for values in (_sawtooth_columns(space), far, noise):
        ids = np.concatenate([np.arange(n), np.arange(0, n, 3)])
        assert np.array_equal(lip_constant(ids, values[ids], space), _ref_quotients(space, np.arange(n), values))


def test_refined_quotient_over_several_batches(blocks):
    # On a line the coordinate has quotient 1 at every pair, so no chunk
    # pair or sub-pair is skipped.  The 47 x 48 / 2 chunk pairs take more
    # than one refinement step, and each step's sub-pairs fill several
    # batches, the last of them short.
    n = 1500
    space = MetricSpace.from_points(_helix(n, 1))
    x = space.coords[:, 0]
    values = np.column_stack([x, triangle_wave(x, 0.02)])
    got = lip_constant(np.arange(n), values, space)
    # Batches are (SUB, SUB, k); read before the reference, which computes distances too.
    batches = [shape[2] for shape in blocks[1:]]
    assert all(shape[:2] == (SUB, SUB) for shape in blocks)
    assert np.array_equal(got, _ref_quotients(space, np.arange(n), values))
    c = -(-n // CHUNK)
    pairs = c * (c + 1) // 2
    steps = -(-pairs // _BATCH)
    # Every sub-pair of every chunk pair, on the diagonal the upper triangle.
    assert sum(batches) == 16 * pairs - 6 * c
    assert steps > 1 and len([b for b in batches if b < _BATCH]) == steps < len(batches), batches


def test_refined_quotient_finds_a_zero_over_zero_pair(blocks):
    # Distinct points at distance 0 with equal values, in two chunks far
    # apart along the curve: their quotient is 0 / 0 in every column.  The
    # seed misses them and a refined sub-pair computes them, where the error
    # finds them.
    n = 2 * BLOCK + 3
    pts = _helix(n, 2)
    pts[[70, 300]] = [[0.0, 0.0], [1e-200, 0.0]]
    space = MetricSpace.from_points(pts)
    values = _sawtooth_columns(MetricSpace.from_points(_helix(n, 2)))
    values[300] = values[70]
    for v in (values, values[:, 1]):
        blocks.clear()
        with pytest.raises(InputError, match="distinct points 70 and 300 are at distance 0"):
            lip_constant(np.arange(n), v, space)
        # The seed's call, then batches of sub-pairs only.
        assert len(blocks) > 1 and all(shape[:2] == (SUB, SUB) for shape in blocks[1:]), blocks


def test_distance_sample_takes_the_pruned_path(blocks):
    # A half-support sample of x -> |x - c| on a three-turn spiral of 1000
    # points: 1-Lipschitz in every direction, so few chunk pairs are skipped,
    # but the sub-chunk pairs prune.
    t = np.linspace(0.0, 1.0, 1000)
    xy = (0.2 + t)[:, None] * np.column_stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)])
    space = MetricSpace.from_points(xy)
    support = np.arange(0, 1000, 2)
    values = np.linalg.norm(xy[support] - [0.3, -0.1], axis=1)
    blocks.clear()
    lc = lip_constant(support, values, space)
    computed = sum(int(np.prod(shape)) for shape in blocks)
    assert lc == _ref_quotients(space, support, values[:, None])[0] and lc <= 1.0
    assert computed < 0.4 * len(support) ** 2 / 2, computed
    LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), 1.0)


def test_pruning_skips_most_of_a_sawtooth(monkeypatch):
    n = 1000
    curve = SampledCurve(MetricSpace.from_points(_helix(n, 2)), np.linspace(0.0, 1.0, n), np.arange(n))
    entries = []
    original = MetricSpace.pair_distances

    def counting(self, ids_a, ids_b):
        out = original(self, ids_a, ids_b)
        entries.append(out.size)
        return out

    monkeypatch.setattr(MetricSpace, "pair_distances", counting)
    witness = sawtooth_witness(curve, 0.05)
    computed = sum(entries)  # before the reference, which computes distances too
    full = _ref_quotients(curve.space, np.arange(n), _sawtooth_columns(curve.space))
    assert full[0] == witness.certificates["lip_constant"]
    # The pairs of distinct points are n (n - 1) / 2.
    assert computed < 0.4 * n * n / 2, computed


def test_pruning_skips_most_of_a_sawtooth_over_shuffled_ids(blocks):
    # The sawtooth of test_pruning_skips_most_of_a_sawtooth on a space that
    # lists the helix's points in shuffled order.  The quotient chunks the
    # ids in the order the curve visits them, not in id order, so its boxes
    # stay small and prune as before.
    n = 1000
    order = np.random.default_rng(n).permutation(n)
    space = MetricSpace.from_points(_helix(n, 2)[order])
    curve = SampledCurve(space, np.linspace(0.0, 1.0, n), np.argsort(order))
    s = curve.arc_coordinates()
    blocks.clear()
    witness = sawtooth_witness(curve, 0.05)
    computed = sum(int(np.prod(shape)) for shape in blocks)
    full = _ref_quotients(space, curve.samples, np.column_stack([triangle_wave(s, 0.05), s]))
    assert full[0] == witness.certificates["lip_constant"]
    assert computed < 0.4 * n * n / 2, computed


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("n", PRUNE_SIZES)
def test_pruned_mcshane_envelopes_match_reference(n, dim):
    space = MetricSpace.from_points(_helix(n, dim, seed=n))
    rng = np.random.default_rng(n * dim)
    wave = _sawtooth_columns(space)[:, 0]
    # A wave along the curve, a distance function and random data, each on
    # a support in curve order with repeated ids.
    support = np.concatenate([np.arange(0, n, 2), [0, n - 1, n - 1]])
    for values in (wave, np.linalg.norm(space.coords - space.coords[n // 3], axis=1),
                   rng.standard_normal(n)):
        values = values[support]
        L = lip_constant(support, values, space)
        sample = LipschitzSample(space, tuple(int(s) for s in support),
                                 tuple(float(v) for v in values), L)
        queries = np.concatenate([np.arange(n), np.arange(n)[::-7]])
        d = _rows(space, support, queries)
        upper = np.min(values[:, None] + L * d, axis=0)
        lower = np.max(values[:, None] - L * d, axis=0)
        assert np.array_equal(mcshane_extend_all(sample, queries, envelope="upper"), upper)
        assert np.array_equal(mcshane_extend_all(sample, queries, envelope="lower"), lower)
        assert np.array_equal(mcshane_extend_all(sample, queries, envelope="average"),
                              0.5 * (upper + lower))


@pytest.mark.parametrize("dim", [1, 8])
def test_pruned_mcshane_is_exact_where_bounds_are_tight(dim):
    # Support at the integers of a line, constant values: a query at a
    # half-integer between two chunks is exactly the box gap away from the
    # end points of both, so their bounds equal its answer.  In 8-D the gap
    # and dist_block sum the squares in different orders, which the slack
    # must absorb.
    n = 2 * BLOCK + 3
    xs = np.arange(n, dtype=float)
    u = np.random.default_rng(dim).uniform(0.5, 2.0, size=dim)
    space = MetricSpace.from_points(np.concatenate([xs, xs[:-1] + 0.5])[:, None] * u)
    support = np.arange(n)
    ends = n + np.arange(CHUNK - 1, n - 1, CHUNK)  # CHUNK - 0.5, 2 * CHUNK - 0.5, ...
    for values in (np.zeros(n), -0.25 * _rows(space, support, ends[2:3])[:, 0]):
        sample = LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), 1.0)
        for queries in (ends, np.arange(space.n)):
            d = _rows(space, support, queries)
            for envelope, ref in (("upper", np.min(values[:, None] + d, axis=0)),
                                  ("lower", np.max(values[:, None] - d, axis=0))):
                assert np.array_equal(mcshane_extend_all(sample, queries, envelope=envelope), ref)


def _ref_envelopes(space, support, values, L, queries):
    d = _rows(space, support, queries)
    upper = np.min(values[:, None] + L * d, axis=0)
    lower = np.max(values[:, None] - L * d, axis=0)
    return {"upper": upper, "lower": lower, "average": 0.5 * (upper + lower)}


def _assert_envelopes(space, support, values, L, queries):
    sample = LipschitzSample(space, tuple(int(s) for s in support), tuple(float(v) for v in values), L)
    for envelope, ref in _ref_envelopes(space, np.asarray(support), np.asarray(values), L, queries).items():
        got = mcshane_extend_all(sample, queries, envelope=envelope)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), envelope


SUB_EDGES = [SUB - 1, SUB + 1, CHUNK - 1, CHUNK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("m", SUB_EDGES)
def test_sub_chunk_envelopes_match_reference_at_edges(m, dim):
    # Support and query counts one off a sub-chunk, one off a chunk, and
    # past two blocks, so that the last sub-chunk of each side is partly
    # padding.  The matrix twin holds the same distances; its boxes span
    # the line.
    n = 2 * BLOCK + 3
    points = MetricSpace.from_points(_helix(n, dim, seed=m))
    rng = np.random.default_rng(m * dim)
    support = np.sort(rng.choice(n, size=m, replace=False))
    wave = _sawtooth_columns(points)[:, 0]
    for space in (points, _matrix_twin(points)):
        for values in (wave, np.linalg.norm(points.coords - points.coords[n // 3], axis=1), rng.standard_normal(n)):
            L = lip_constant(support, values[support], space)
            for k in SUB_EDGES:
                _assert_envelopes(space, support, values[support], L, rng.choice(n, size=k))


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_sub_chunk_envelopes_on_query_and_support_orders(dim):
    n = 2 * BLOCK + 3
    space = MetricSpace.from_points(_helix(n, dim, seed=dim))
    rng = np.random.default_rng(dim)
    values = np.linalg.norm(space.coords - space.coords[n // 2], axis=1) + 0.1 * _sawtooth_columns(space)[:, 0]
    # Curve order, a permutation, and duplicate ids with their values.
    for support in (np.arange(0, n, 3), rng.permutation(n)[:200], np.repeat(np.arange(0, n, 4), 2)):
        L = lip_constant(support, values[support], space)
        sample = LipschitzSample(space, tuple(support.tolist()), tuple(values[support].tolist()), L)
        everywhere = mcshane_extend_all(sample)
        for queries in ([], [7], [7, 7, 7], np.repeat(np.arange(0, n, 5), 3), rng.permutation(n)):
            _assert_envelopes(space, support, values[support], L, np.asarray(queries, dtype=int))
            assert np.array_equal(mcshane_extend_all(sample, queries), everywhere[np.asarray(queries, dtype=int)])


def test_lower_envelope_of_exactly_zero_keeps_its_sign():
    # On the support of a distance sample with L = 1, and everywhere for a
    # zero sample, the lower envelope is v - L * d = 0.0 exactly: +0.0, not
    # the -0.0 that negating the sign form -v + L * d would give.
    n = 2 * BLOCK + 3
    space = MetricSpace.from_points(_helix(n, 2))
    support = np.arange(0, n, 2)
    for values, L in ((np.zeros(len(support)), 0.0), (_rows(space, support, [n // 2])[:, 0], 1.0)):
        sample = LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), L)
        got = mcshane_extend_all(sample, envelope="lower")
        ref = _ref_envelopes(space, support, values, L, np.arange(n))["lower"]
        assert got.tobytes() == ref.tobytes()
        assert np.count_nonzero(got == 0.0) >= (n if L == 0.0 else 1)
        assert not np.signbit(got[got == 0.0]).any()


def test_zero_lipschitz_constant_where_distances_overflow():
    # Every distance of the big helix overflows to inf, and the space's box
    # extent with it: a term there is 0 * inf = nan with L = 0, and inf with
    # L = 1.  The mixed space adds CHUNK big points to the unit helix.
    # Values 0 on its unit points and 1 on its big ones have quotient 0, a
    # finite difference over inf; a bound from the values alone would skip
    # the big points for a unit query, whose terms there are nan.
    n = 2 * BLOCK + 3
    big = MetricSpace.from_points(1e200 * _helix(n, 2))
    mixed = MetricSpace.from_points(np.vstack([_helix(n, 2), 1e200 * _helix(n, 2)[:CHUNK]]))
    support = np.arange(0, n, 2)
    rng = np.random.default_rng(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for L in (0.0, 1.0):
            _assert_envelopes(big, support, np.full(len(support), 0.5), L, np.arange(n))
        # The big points fill sub-chunks of their own.
        mixed_support = np.concatenate([np.arange(0, 2 * BLOCK, 2), n + np.arange(CHUNK)])
        _assert_envelopes(mixed, mixed_support, (mixed_support >= n).astype(float), 0.0, np.arange(mixed.n))
        for space in (big, mixed):
            values = rng.standard_normal((space.n, 2))
            assert np.array_equal(lip_constant(np.arange(space.n), values, space),
                                  _ref_quotients(space, np.arange(space.n), values))


def test_sub_chunk_envelopes_keep_the_last_of_tied_zeros():
    # v = |x - 15| on 15..23, sloping down elsewhere, and v(15) = -0.0: at
    # the query 15 the lower envelope's terms tie at -0.0 (support 15, the
    # last point of its sub-chunk) and +0.0 (support 16..23, the next
    # sub-chunk, of lowest bound).  The full scan keeps the last of the
    # ties in support order, +0.0; so must the sub-chunk folds.
    x = np.arange(2 * CHUNK, dtype=float)
    space = MetricSpace.from_points(x[:, None])
    values = np.where(x <= 23, x - 15, 31 - x)
    values[15] = -0.0
    for support in (np.arange(len(x)), np.arange(len(x))[::-1]):
        _assert_envelopes(space, support, values[support], 1.0, np.arange(len(x)))
    sample = LipschitzSample(space, tuple(range(len(x))), tuple(values.tolist()), 1.0)
    assert np.signbit(mcshane_extend_all(sample, [15], envelope="lower")) == [False]


def test_envelope_pruning_skips_most_of_a_spiral(blocks):
    # A half-support sample of x -> |x - c| on a three-turn spiral of 1000
    # points, as in the benchmark's check_contraction.
    t = np.linspace(0.0, 1.0, 1000)
    xy = (0.2 + t)[:, None] * np.column_stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)])
    space = MetricSpace.from_points(xy)
    support = np.arange(0, 1000, 2)
    values = np.linalg.norm(xy[support] - [0.3, -0.1], axis=1)
    sample = LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), 1.0)
    blocks.clear()
    got = mcshane_extend_all(sample)
    # Counted before the reference, which computes distances too.
    computed = sum(int(np.prod(shape)) for shape in blocks)
    assert np.array_equal(got, _ref_envelopes(space, support, values, 1.0, np.arange(1000))["upper"])
    assert computed < 0.3 * len(support) * 1000, computed


CHUNK_EDGES = [CHUNK - 1, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("m", CHUNK_EDGES)
def test_chunk_level_envelopes_match_reference_at_edges(m, dim):
    # Support and query counts one off one and two chunks, so that the last
    # chunk of each side is one point or all but one; the matrix twin's
    # boxes span the line.
    n = 2 * BLOCK + 3
    points = MetricSpace.from_points(_helix(n, dim, seed=m + dim))
    rng = np.random.default_rng(m + 10 * dim)
    support = np.sort(rng.choice(n, size=m, replace=False))
    wave = _sawtooth_columns(points)[:, 0]
    for space in (points, _matrix_twin(points)):
        for values in (wave, np.linalg.norm(points.coords - points.coords[n // 3], axis=1), rng.standard_normal(n)):
            L = lip_constant(support, values[support], space)
            for k in CHUNK_EDGES:
                _assert_envelopes(space, support, values[support], L, rng.choice(n, size=k))
                _assert_envelopes(space, support, values[support], 2.0 * L, np.sort(rng.choice(n, size=k)))


def test_envelopes_keep_the_last_of_tied_zeros_across_a_chunk_edge():
    # v = x - 31 on 0..39, sloping down after, and v(31) = -0.0: at the query
    # 31 the lower envelope's terms tie at -0.0 (support 31, the last point
    # of the first chunk) and +0.0 (support 32..39, in the next chunk).  The
    # full scan keeps the last of the ties in support order, +0.0; so must
    # the folds, whichever chunks and sub-chunks hold the support.
    x = np.arange(3 * CHUNK, dtype=float)
    space = MetricSpace.from_points(x[:, None])
    values = np.where(x <= 39, x - 31, 47 - x)
    values[31] = -0.0
    for support in (np.arange(len(x)), np.arange(len(x))[::-1], np.arange(1, len(x), 2)):
        _assert_envelopes(space, support, values[support], 1.0, np.arange(len(x)))
    sample = LipschitzSample(space, tuple(range(len(x))), tuple(values.tolist()), 1.0)
    assert np.signbit(mcshane_extend_all(sample, [31], envelope="lower")) == [False]


def test_average_envelope_is_the_upper_and_lower_scans(blocks):
    # The spiral sample of test_envelope_pruning_skips_most_of_a_spiral: the
    # average envelope scans the pairs of each sign on its own, so it
    # computes the distances of the upper and lower envelopes and no more.
    t = np.linspace(0.0, 1.0, 1000)
    xy = (0.2 + t)[:, None] * np.column_stack([np.cos(6 * np.pi * t), np.sin(6 * np.pi * t)])
    space = MetricSpace.from_points(xy)
    support = np.arange(0, 1000, 2)
    values = np.linalg.norm(xy[support] - [0.3, -0.1], axis=1)
    sample = LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), 1.0)
    ref = _ref_envelopes(space, support, values, 1.0, np.arange(1000))
    entries = {}
    for envelope in ("upper", "lower", "average"):
        blocks.clear()
        assert mcshane_extend_all(sample, envelope=envelope).tobytes() == ref[envelope].tobytes()
        entries[envelope] = sum(int(np.prod(shape)) for shape in blocks)
    assert entries["average"] == entries["upper"] + entries["lower"], entries


@pytest.mark.parametrize("m, n", [(16, 96), (13, 50), (CHUNK, 3 * CHUNK + 1)])
def test_envelopes_on_one_support_chunk_match_brute_force(blocks, m, n):
    # A support of one chunk has no seed: each sign keeps every pair, so
    # upper and lower each compute every support x query distance once, and
    # average is their two scans.  With m and n multiples of SUB, no padding
    # is computed: the entries are exactly the m x n pairs.
    space = MetricSpace.from_points(_helix(n, 2, seed=m))
    support = np.random.default_rng(m).choice(n, size=m, replace=False)
    values = np.linalg.norm(space.coords[support] - [0.3, -0.1], axis=1) + 0.1 * np.sin(support)
    L = lip_constant(support, values, space)
    sample = LipschitzSample(space, tuple(support.tolist()), tuple(values.tolist()), L)
    queries = np.arange(n)
    ref = _ref_envelopes(space, support, values, L, queries)
    entries = {}
    for envelope in ("upper", "lower", "average"):
        blocks.clear()
        assert mcshane_extend_all(sample, queries, envelope=envelope).tobytes() == ref[envelope].tobytes()
        entries[envelope] = sum(int(np.prod(shape)) for shape in blocks)
    assert entries["average"] == entries["upper"] + entries["lower"], entries
    assert entries["upper"] == entries["lower"] >= m * n, entries
    if m % SUB == n % SUB == 0:
        assert entries["upper"] == m * n


def test_sawtooth_certificate_chord_arc_defect_matches_reference():
    for n in SIZES:
        curve = euclidean_curve(_points(n, seed=n))
        s = curve.arc_coordinates()
        d = _full(curve.space)
        np.fill_diagonal(d, np.inf)
        ref = max(1.0, float(np.max(np.abs(s[:, None] - s[None, :]) / d))) - 1.0
        assert sawtooth_witness(curve, 0.1).certificates["chord_arc_defect"] == ref


# -- box-pruned greedy net ---------------------------------------------------------------

NET_SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("n", NET_SIZES)
def test_pruned_net_matches_reference(n, dim):
    space = MetricSpace.from_points(_helix(n, dim, seed=n))
    rng = np.random.default_rng(n + dim)
    step = float(np.median(space.pair_distances(np.arange(n - 1), np.arange(1, n))))
    # Curve order; curve order with repeated ids next to their first
    # visit, within chunks and across chunk edges; random order with
    # repeated ids.
    curve = np.arange(n)
    repeated = np.sort(np.concatenate([curve, np.arange(0, n, 3), [n - 1]]))
    shuffled = rng.permutation(repeated)
    for eps in (0.5 * step, 1.5 * step, 4.0 * step):
        for candidates in (curve, repeated, shuffled):
            assert maximal_separated_net(space, candidates, eps).members == _ref_net(space, candidates, eps)
            assert hausdorff1_content(space, candidates, 2.0 * eps) == _ref_content(space, candidates, 2.0 * eps)


def test_pruned_net_is_exact_on_collinear_points_in_8d():
    # Steps within a chunk are longer than steps across chunk edges, so a
    # chunk's first candidate is rejected iff the previous chunk's last lies
    # closer than epsilon.  epsilon is the box gap of one edge, its 8 squares
    # summed one at a time; dist_block sums them pairwise, and the two may
    # round apart.  Without the slack on the gaps, a gap rounded above the
    # distance would skip the member that rejects.
    rng = np.random.default_rng(8)
    n = 2 * BLOCK + 3
    edges = np.arange(CHUNK, n, CHUNK)
    for _ in range(10):
        u = rng.uniform(0.5, 2.0, size=8)
        steps = rng.uniform(3.0, 4.0, size=n)
        steps[edges] = rng.uniform(1.0, 2.0, size=len(edges))
        space = MetricSpace.from_points(np.cumsum(steps)[:, None] * u)
        for e in edges:
            acc = 0.0
            for g in space.coords[e] - space.coords[e - 1]:
                acc = acc + g * g
            eps = float(np.sqrt(acc))
            assert maximal_separated_net(space, range(n), eps).members == _ref_net(space, range(n), eps)


def test_net_falls_back_when_the_box_extent_overflows():
    # The boxes then prune nothing, and distances that overflow to inf
    # count as far.
    n = 2 * BLOCK + 3
    space = MetricSpace.from_points(1e200 * _helix(n, 2))
    with np.errstate(over="ignore"):
        for eps in (1e190, 1e300):
            assert maximal_separated_net(space, range(n), eps).members == _ref_net(space, range(n), eps)


def test_kernels_on_a_point_without_coordinates():
    # A space of one point has box extent 0, and with no coordinates no
    # box either; its boxes span the line.
    space = MetricSpace.from_points(np.zeros((1, 0)))
    sample = LipschitzSample(space, (0,), (1.5,), 1.0)
    for envelope in ("upper", "lower", "average"):
        assert mcshane_extend_all(sample, [0, 0], envelope=envelope).tolist() == [1.5, 1.5]
    assert maximal_separated_net(space, [0, 0], 1.0).members == (0,)
    assert lip_constant([0, 0], [2.0, 2.0], space) == 0.0


def test_pruned_net_at_a_large_epsilon():
    # An epsilon beyond every box gap prunes nothing; one beyond the whole
    # set admits the first candidate alone.
    n = 2 * BLOCK + 3
    space = MetricSpace.from_points(_helix(n, 3))
    for eps in (0.8, 10.0):
        assert maximal_separated_net(space, range(n), eps).members == _ref_net(space, range(n), eps)
    assert maximal_separated_net(space, range(n), 10.0).members == (0,)


def test_net_pruning_skips_most_of_a_spiral(monkeypatch):
    n, eps = 1000, 0.005
    space = MetricSpace.from_points(_helix(n, 2))
    entries = []
    original = MetricSpace.pair_distances

    def counting(self, ids_a, ids_b):
        out = original(self, ids_a, ids_b)
        entries.append(out.size)
        return out

    monkeypatch.setattr(MetricSpace, "pair_distances", counting)
    members = maximal_separated_net(space, range(n), eps).members
    computed = sum(entries)  # before the reference, which computes distances too
    assert members == _ref_net(space, range(n), eps)
    # Unpruned, the scan passes each chunk of CHUNK candidates with the
    # members admitted before it and with itself.
    full = sum(min(CHUNK, n - lo) * (np.searchsorted(members, lo) + min(CHUNK, n - lo))
               for lo in range(0, n, CHUNK))
    assert computed < 0.3 * full, (computed, full)


@pytest.mark.parametrize("first, second, third", [(64, 65, 999), (200, 65, 66), (0, 999, 65), (2, 1, 3)])
def test_quotient_scan_names_the_first_zero_pair_at_sub_block_edges(first, second, third):
    # Three points pairwise at distance 0 (their coordinates' differences
    # square to 0) among 1000, at and next to chunk and sub-chunk edges.
    # The error names the smallest position in a zero pair and its smallest
    # zero partner, whichever sub-pairs and batches hold them.
    n = 1000
    pts = _helix(n, 2)
    pts[[first, second, third]] = [[0.0, 1e-200], [0.0, 0.0], [1e-200, 0.0]]
    space = MetricSpace.from_points(pts)
    a, b = sorted((first, second, third))[:2]
    values = np.random.default_rng(n).standard_normal(n)
    with pytest.raises(InputError, match=f"distinct points {a} and {b} are at distance 0"):
        lip_constant(np.arange(n), values, space)
