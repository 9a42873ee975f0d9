"""The blocked pairwise kernels against brute-force n x n references.

Every kernel routes its distances through ``MetricSpace.dist_block`` in row
blocks of ``BLOCK``; maxima, minima and argmins over identical distances are
exact, so each result must equal its reference bit for bit, including at the
block edges."""
from functools import lru_cache

import numpy as np
import pytest

from curve_lab import (InconsistentDataError, LipschitzSample, MetricSpace,
                       hausdorff1_content, lip_constant, maximal_separated_net,
                       mcshane_extend_all, sawtooth_witness)
from curve_lab import lipschitz, witnesses
from curve_lab.metric import BLOCK
from conftest import euclidean_curve, line_space

SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _points(n, dim=2, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, dim))


@lru_cache(maxsize=None)
def _spaces(n):
    coords = MetricSpace.from_points(_points(n))
    return [coords, MetricSpace.from_matrix(coords.submatrix(range(n)))]


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
    for space in _spaces(n):
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

    monkeypatch.setattr(lipschitz, "lip_constant", counting)
    monkeypatch.setattr(witnesses, "lip_constant", counting)
    curve = euclidean_curve(_points(50, seed=1))
    witness = sawtooth_witness(curve, 0.1)
    assert len(calls) == 1
    assert witness.realization.L == max(1.0, witness.certificates["lip_constant"])

