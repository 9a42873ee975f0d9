import json
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_lab import (InputError, LipschitzSample, MetricSpace, SampledCurve, maximal_separated_net,
                       mcshane_extend_all, total_variation, validate_metric)
from curve_lab.metric import SUB, TRIANGLE_BLOCK, TRIANGLE_RTOL, ValidationReport, validate_space
from conftest import line_space


def reference_report(d):
    """The exhaustive per-row scan ``validate_metric`` ran before its
    min-plus prefilter, as (passed, [(axiom, witness, detail), ...]).  On a
    symmetric table each violation is listed once: positivity with i < j,
    triangles (i, k, j) with k >= i."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    tol = TRIANGLE_RTOL * (float(np.max(np.abs(d))) or 1.0)
    found = []
    for i in np.flatnonzero(np.abs(np.diag(d)) > 0)[:8]:
        found.append(("zero-diagonal", (int(i),), f"dist({i},{i}) = {float(d[i, i])!r}"))
    asym = [(int(i), int(j)) for i, j in np.argwhere(d != d.T) if i < j]
    for i, j in asym[:8]:
        found.append(("symmetry", (i, j), f"dist({i},{j})={float(d[i, j])!r} != dist({j},{i})={float(d[j, i])!r}"))
    off = d.copy()
    np.fill_diagonal(off, 1.0)
    pairs = [(i, j) for i, j in np.argwhere(off <= 0) if asym or i < j]
    for i, j in pairs[:8]:
        found.append(("positivity", (int(i), int(j)), f"dist({i},{j})={float(d[i, j])!r} <= 0"))
    reported = 0
    for i in range(n):
        if reported >= 8:
            break
        slack = d[i] - (d[i][:, None] + d)
        triples = [(j, k) for j, k in np.argwhere(slack > tol) if asym or k >= i]
        for j, k in triples[:8 - reported]:
            found.append(("triangle", (int(i), int(k), int(j)),
                          f"dist({i},{k})={float(d[i, k])!r} > dist({i},{j})+dist({j},{k})={float(d[i, j] + d[j, k])!r}"))
            reported += 1
    return not found, found


def report_tuples(report):
    return report.passed, [(v.axiom, v.witness, v.detail) for v in report.violations]


def planted_tables(n, seed):
    """Named distance tables on n points: a Euclidean metric, and copies with
    triangle violations planted in the first row, the last row, across the
    first block boundary, in many rows at once, and next to asymmetric,
    negative and zero off-diagonal entries."""
    rng = np.random.default_rng(seed)
    xy = rng.normal(size=(n, 2))
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
    tables = {"metric": d}

    def plant(pairs, symmetric=True):
        t = d.copy()
        for i, k in pairs:
            t[i, k] += 10.0
            if symmetric:
                t[k, i] = t[i, k]
        return t

    if n >= 2:
        tables["first-row"] = plant([(0, n - 1)])
        tables["last-row"] = plant([(n - 1, 0)], symmetric=False)
        tables["many"] = plant([(i, (i + 1 + n // 2) % n) for i in range(0, n, max(1, n // 12))])
        mixed = plant([(n - 1, n // 2)])
        mixed[0, 1] = -mixed[0, 1]
        mixed[1, 0] = 0.0
        tables["mixed"] = mixed
    if n > TRIANGLE_BLOCK:
        tables["block-boundary"] = plant([(TRIANGLE_BLOCK - 1, TRIANGLE_BLOCK)])
    if n >= 3:
        # One violating pair, first row against last, with one witness each
        # way: every point is 2 apart but m, which is 1 from both ends.
        m = n // 2
        sparse = np.full((n, n), 2.0)
        np.fill_diagonal(sparse, 0.0)
        sparse[m, [0, n - 1]] = sparse[[0, n - 1], m] = 1.0
        sparse[0, n - 1] = sparse[n - 1, 0] = 2.5
        tables["sparse"] = sparse
    return tables


class TestValidateMetric:
    def test_two_point_metric_passes(self):
        assert validate_metric([[0, 1], [1, 0]]).passed

    def test_asymmetry_witnessed(self):
        report = validate_metric([[0, 1], [2, 0]])
        assert not report.passed
        witnesses = [v.witness for v in report.violations if v.axiom == "symmetry"]
        assert (0, 1) in witnesses

    def test_triangle_violation_witnessed(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert not report.passed
        triples = {tuple(sorted(v.witness)) for v in report.violations if v.axiom == "triangle"}
        assert (0, 1, 2) in triples

    def test_zero_diagonal_and_positivity(self):
        report = validate_metric([[1, 0], [0, 0]])
        assert [v for v in report.violations if v.axiom == "zero-diagonal"]
        assert [v for v in report.violations if v.axiom == "positivity"]

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            validate_metric([[0, 1]])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            validate_metric([[0, np.inf], [np.inf, 0]])

    def test_space_documents_get_one_report(self):
        # A matrix gets the scan; a graph or Euclidean space that loads passes
        # without one, unless its distances round to 0 and it takes the table.
        table = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        assert validate_space({"kind": "matrix", "data": table}) == validate_metric(table)
        for doc in ({"kind": "graph", "n": 3, "data": [[0, 1, 1.0], [1, 2, 2.0]]},
                    {"kind": "euclidean", "data": [[0, 0], [3, 4], [1, 1]]}):
            assert validate_space(doc) == ValidationReport(passed=True, violations=())
        report = validate_space({"kind": "euclidean", "data": [[0, 0], [1e-200, 0], [1, 1]]})
        assert {v.axiom for v in report.violations} == {"positivity"}
        with pytest.raises(InputError, match="graph is disconnected"):
            validate_space({"kind": "graph", "n": 3, "data": [[0, 1, 1.0]]})

    def test_validated_space_has_no_triangle_violation_brute_force(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(12, 3))
        space = MetricSpace.from_points(coords)
        d = space.submatrix(range(space.n))
        n = space.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-9 * d.max()

    @given(st.lists(st.integers(-5000, 5000), min_size=2, max_size=8, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_line_embeddings_always_validate(self, grid):
        # Integer grid scaled to [-50, 50]: separations stay far above the
        # squared-distance underflow threshold.
        xs = [g / 100.0 for g in grid]
        space = line_space(xs)
        d = space.submatrix(range(space.n))
        assert validate_metric(d).passed


class TestValidateMetricMatchesRowScan:
    @pytest.mark.parametrize("n", [1, 2, TRIANGLE_BLOCK - 1, TRIANGLE_BLOCK,
                                   TRIANGLE_BLOCK + 1, 300])
    def test_planted_violations(self, n):
        for name, table in planted_tables(n, seed=n).items():
            assert report_tuples(validate_metric(table)) == reference_report(table), name
            if name == "metric":
                assert validate_metric(table).passed
            elif n >= 3:  # two points have no triangle to break
                assert [v for v in validate_metric(table).violations if v.axiom == "triangle"], name

    def test_sparse_violation_reported_once(self):
        n = 2 * TRIANGLE_BLOCK + 3
        report = validate_metric(planted_tables(n, seed=0)["sparse"])
        assert [v.witness for v in report.violations] == [(0, n - 1, n // 2)]

    def test_mirrors_leave_room_for_eight_distinct_violations(self):
        # Eight violated pairs (2q, 2q+1), each 2.5 apart but 1 from 20+q:
        # listed from both ends, the cap held four of them twice.
        table = np.full((30, 30), 2.0)
        np.fill_diagonal(table, 0.0)
        for q in range(8):
            table[2 * q, 2 * q + 1] = table[2 * q + 1, 2 * q] = 2.5
            table[2 * q, 20 + q] = table[20 + q, 2 * q] = 1.0
            table[2 * q + 1, 20 + q] = table[20 + q, 2 * q + 1] = 1.0
        report = validate_metric(table)
        assert [v.witness for v in report.violations] == [(2 * q, 2 * q + 1, 20 + q) for q in range(8)]
        assert report_tuples(report) == reference_report(table)
        report = validate_metric([[0, -1], [-1, 0]])
        assert [v.witness for v in report.violations if v.axiom == "positivity"] == [(0, 1)]

    def test_more_than_eight_witnesses_stop_at_eight(self):
        table = planted_tables(TRIANGLE_BLOCK + 1, seed=1)["many"]
        report = validate_metric(table)
        assert len([v for v in report.violations if v.axiom == "triangle"]) == 8
        assert report_tuples(report) == reference_report(table)

    def test_tiny_tables(self):
        for table in ([[0.0]], [[-1.0]], [[0, -1], [-1, 0]], [[0, 0], [3, 0]],
                      [[0, 1, 3], [1, 0, 1], [3, 1, 0]]):
            assert report_tuples(validate_metric(table)) == reference_report(table)

    def test_details_print_plain_floats(self):
        # A numpy scalar's repr is "np.float64(5.0)" from numpy 2 on and "5.0"
        # before, so an artifact would depend on the numpy version.
        for n in (3, TRIANGLE_BLOCK + 1):
            for name, table in planted_tables(n, seed=n).items():
                details = [v.detail for v in validate_metric(table).violations]
                assert all("np." not in d for d in details), (name, details)
        report = validate_metric([[1.0, 5.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert [v.detail for v in report.violations] == [
            "dist(0,0) = 1.0", "dist(0,1)=5.0 != dist(1,0)=2.0", "dist(0,1)=5.0 > dist(0,2)+dist(2,1)=2.0"]

    def test_random_integer_tables(self):
        # Small integer entries: ties, zeros, negatives and asymmetry.
        rng = np.random.default_rng(4)
        for trial in range(40):
            n = int(rng.integers(1, 2 * TRIANGLE_BLOCK + 3))
            table = rng.integers(-1, 5, size=(n, n)).astype(float)
            if trial % 2:
                table = np.minimum(table, table.T)
            assert report_tuples(validate_metric(table)) == reference_report(table)


class TestMetricSpaceConstruction:
    def test_duplicate_euclidean_points_rejected(self):
        with pytest.raises(InputError):
            MetricSpace.from_points([[0, 0], [0, 0]])

    @pytest.mark.parametrize("coords, dup", [
        ([[1.0], [2.0], [1.0]], 1),
        ([[0, 1], [-0.0, 1], [2, 3]], 1),
        ([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]], 2),
        ([[5, 5, 5], [1, 2, 3], [5, 5, 5], [5, 5, 5]], 2),
        ([[1, 2, 3], [1, 2, 4], [1, 3, 3], [2, 2, 3], [1, 2, 3]], 1),
        ([[], []], 1),
    ])
    def test_duplicate_count(self, coords, dup):
        """Duplicates in the first and last rows, a triple, and signed zeros:
        the count is n minus the number of distinct points."""
        with pytest.raises(InputError, match=rf"^{dup} duplicated point\(s\) in Euclidean embedding"):
            MetricSpace.from_points(coords)

    def test_duplicate_count_matches_unique_rows(self):
        rng = np.random.default_rng(12)
        for case in range(300):
            dim = int(rng.integers(1, 4))
            coords = rng.integers(-2, 3, size=(int(rng.integers(1, 40)), dim)).astype(float)
            coords[rng.random(coords.shape) < 0.2] *= -1.0  # some -0.0
            dup = len(coords) - len(np.unique(coords, axis=0))
            if dup:
                with pytest.raises(InputError, match=rf"^{dup} duplicated"):
                    MetricSpace.from_points(coords)
            else:
                assert MetricSpace.from_points(coords).n == len(coords), case

    def test_graph_shortest_path(self):
        # Path graph 0-1-2 with weights 1 and 2: d(0,2) = 3.
        space = MetricSpace.from_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert space.dist(0, 2) == 3.0
        assert space.dist(2, 0) == 3.0

    def test_graph_triangle_shortcut(self):
        space = MetricSpace.from_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert space.dist(0, 2) == 2.0

    def test_disconnected_graph_rejected(self):
        with pytest.raises(InputError):
            MetricSpace.from_graph(3, [(0, 1, 1.0)])

    def test_from_json_matrix(self):
        space = MetricSpace.from_json(
            {"kind": "matrix", "points": ["a", "b"], "data": [[0, 1], [1, 0]]})
        assert space.dist(0, 1) == 1.0

    def test_from_json_euclidean(self):
        space = MetricSpace.from_json({"kind": "euclidean", "data": [[0, 0], [3, 4]]})
        assert space.dist(0, 1) == 5.0

    def test_from_json_graph(self):
        space = MetricSpace.from_json(
            {"kind": "graph", "points": [0, 1, 2], "data": [[0, 1, 1], [1, 2, 1]]})
        assert space.dist(0, 2) == 2.0

    def test_from_json_unknown_kind(self):
        with pytest.raises(InputError):
            MetricSpace.from_json({"kind": "banach"})

    @pytest.mark.parametrize("doc", [{"kind": "matrix", "points": [0, 1]},
                                     {"kind": "graph", "n": 3, "edges": [[0, 1, 1.0]]},
                                     [[0, 1], [1, 0]], '{"kind": "matrix", "data": [[0]]}'])
    def test_from_json_without_data_key(self, doc):
        with pytest.raises(InputError, match="'data'"):
            MetricSpace.from_json(doc)

    def test_readme_input_formats_load(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("**Metric space** (JSON):", 1)[1].split("```json\n", 1)[1]
        docs = [json.loads(line) for line in block.split("```", 1)[0].splitlines()]
        spaces = [MetricSpace.from_json(doc) for doc in docs]
        assert [s.n for s in spaces] == [2, 3, 3]
        assert spaces[2].dist(0, 2) == 1.5

    def test_invalid_matrix_rejected_at_construction(self):
        with pytest.raises(InputError):
            MetricSpace.from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_check_ids_matches_check_id(self):
        space = line_space(range(5))
        good = ([4, 0, 0, 3], (1, 2), range(5), np.arange(5, dtype=np.uint8),
                [2.0, 0.0], np.array([4.0, 1.0]), (i for i in [3, 1]), [])
        for ids in good:
            expected = [space.check_id(i) for i in ids] if not hasattr(ids, "__next__") else [3, 1]
            got = space.check_ids(ids)
            assert got.dtype == int and got.tolist() == expected
        # The error names the first bad id in input order, as check_id does.
        for ids, bad in (([0, 7, -1], 7), (np.array([3, -2, 9]), -2), ([-1.0, 5.5], -1),
                         (np.array([2 ** 63], dtype=np.uint64), 2 ** 63)):
            with pytest.raises(InputError, match=rf"^point id {bad} out of range \[0, 5\)$"):
                space.check_ids(ids)
        # A fractional or boolean id is an error, not a truncated id, also
        # among ints, which numpy reads together as an int array.
        for ids, bad in (([0, 2.7], "2.7"), ([True], "True"), (np.array([1.0, -0.5]), "-0.5"),
                         (np.array([False]), "False"), ([float("nan")], "nan"), ([0, True, 2], "True"),
                         ((3, np.True_), "True"), ([1, np.False_, 2.5], "False"), ([1, 2.5, True], "2.5"),
                         (deque([2, True]), "True")):
            with pytest.raises(InputError, match=rf"^point id {bad} is not an integer$"):
                space.check_ids(ids)
        # A scalar or a nested id argument is an input error too, not a TypeError.
        for ids, message in ((2, "point ids must be a sequence, got 2"), (None, "point ids must be a sequence, got None"),
                             (np.array(2), "point ids must be a sequence, got array(2)"),
                             ([[0], [1]], "point id [0] is not an integer"), ([0, [1]], "point id [1] is not an integer"),
                             (np.array([[0], [1]]), "point id [0] is not an integer")):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                space.check_ids(ids)
        for i in ([0], None, np.array([1]), 1j):
            with pytest.raises(InputError, match=f"^point id {re.escape(str(i))} is not an integer$"):
                space.check_id(i)

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 9])
    def test_pair_distances_keep_the_norm_bits(self, dim):
        # pair_distances is the one formula; dist, dist_row and submatrix
        # are views of it.  Their bits are those of numpy's elementwise norm,
        # on coordinates and on tables, and the pruned pass's batches of
        # shape (SUB, SUB, k) hold the bits of its row blocks' entries.
        rng = np.random.default_rng(dim)
        n = 40 if dim else 1  # points without coordinates are all one point
        for scale in (1e-3, 1.0, 1e6):
            coords = rng.normal(size=(n, dim)) * scale
            a, b = rng.integers(0, n, size=(2, 300))
            old = np.linalg.norm(coords[a] - coords[b], axis=-1)
            space = MetricSpace.from_points(coords)
            assert space.pair_distances(a, b).tobytes() == old.tobytes()
            assert np.array([space.dist(i, j) for i, j in zip(a, b)]).tobytes() == old.tobytes()
            for i in a[:10]:
                row = np.linalg.norm(coords[b] - coords[i], axis=-1)
                assert space.dist_row(i, b).tobytes() == row.tobytes()
            matrix = space.pair_distances(np.arange(n)[:, None], np.arange(n))
            assert space.submatrix(range(n)).tobytes() == matrix.tobytes()
            table = MetricSpace.from_matrix(matrix)
            assert table.pair_distances(a, b).tobytes() == matrix[a, b].tobytes()
            assert np.array([table.dist(i, j) for i, j in zip(a, b)]).tobytes() == matrix[a, b].tobytes()
            assert table.dist_row(a[0], b).tobytes() == matrix[a[0], b].tobytes()
            assert space.pair_distances(a[:0], b[:0]).shape == (0,)
            assert space.pair_distances(a[0], b[0]) == table.pair_distances(a[0], b[0]) == old[0]
            for metric in (space, table):  # scalar ids give a scalar, not a 0-d array
                one = metric.pair_distances(a[0], b[0])
                assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
            rows, cols = rng.integers(0, n, size=(2, SUB, 37))
            for metric in (space, table):
                batch = metric.pair_distances(rows[:, None], cols[None])
                blocks = np.stack([metric.pair_distances(rows[:, k, None], cols[:, k]) for k in range(37)], axis=-1)
                assert batch.shape == (SUB, SUB, 37) and batch.tobytes() == blocks.tobytes()


    def test_caller_arrays_stay_writable(self):
        # The space freezes its own copy; writing to the caller's array
        # afterwards neither fails nor changes the space.
        coords = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        points, matrix = MetricSpace.from_points(coords), MetricSpace.from_matrix(table)
        coords[0, 0] = 5.0
        table[0, 1] = 7.0
        assert coords.flags.writeable and table.flags.writeable
        assert points.dist(0, 1) == 5.0 and matrix.dist(0, 1) == 1.0
        assert not points.coords.flags.writeable

class TestSeparatedNet:
    def test_greedy_scan_on_line(self):
        space = line_space([0.0, 0.05, 1.0])
        net = maximal_separated_net(space, [0, 1, 2], 0.1)
        assert net.members == (0, 2)

    def test_singleton(self):
        space = line_space([7.0])
        net = maximal_separated_net(space, [0], 123.0)
        assert net.members == (0,)

    def test_unit_square_large_epsilon(self):
        space = MetricSpace.from_points([[0, 0], [1, 0], [0, 1], [1, 1]])
        net = maximal_separated_net(space, [0, 1, 2, 3], 2.0)
        assert net.members == (0,)
        # Maximality: every corner within epsilon of the single member.
        assert all(space.dist(0, i) < 2.0 for i in range(4))

    def test_idempotent_on_own_members(self):
        rng = np.random.default_rng(11)
        space = MetricSpace.from_points(rng.normal(size=(20, 2)))
        net = maximal_separated_net(space, range(20), 0.5)
        again = maximal_separated_net(space, net.members, 0.5)
        assert again.members == net.members

    def test_separation_invariant(self):
        rng = np.random.default_rng(5)
        space = MetricSpace.from_points(rng.normal(size=(30, 2)))
        net = maximal_separated_net(space, range(30), 0.7)
        m = net.members
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                assert space.dist(m[i], m[j]) >= 0.7

    def test_empty_candidates_error(self):
        with pytest.raises(InputError):
            maximal_separated_net(line_space([0.0, 1.0]), [], 0.1)
        with pytest.raises(InputError):
            maximal_separated_net(line_space([0.0, 1.0]), [0, 1], float("nan"))


# -- frozen values ---------------------------------------------------------------


def _frozen_values():
    """A space of each kind, a curve and a sample, each with what it computes."""
    points = MetricSpace.from_points([[0.0], [1.0], [2.0]])
    matrix = MetricSpace.from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    curve = SampledCurve(points, [0.0, 0.5, 1.0], [0, 1, 0])
    sample = LipschitzSample(points, [0, 2], [0.0, 1.0], 1.0)
    return {"points": (points, lambda: points.submatrix(range(3)).tobytes()),
            "matrix": (matrix, lambda: matrix.submatrix(range(3)).tobytes()),
            "curve": (curve, lambda: total_variation(curve)),
            "sample": (sample, lambda: mcshane_extend_all(sample).tobytes())}


FROZEN = {"points": ("n", "coords", "_dmat", "_extent"), "matrix": ("n", "coords", "_dmat", "_extent"),
          "curve": ("space", "times", "samples", "_chords"), "sample": ("space", "support", "values", "L")}


@pytest.mark.parametrize("kind, name", [(k, a) for k, names in FROZEN.items() for a in names + ("extra",)])
def test_values_refuse_assignment_and_deletion(kind, name):
    # A value stays what it was checked as.  On a line, rebinding a curve's
    # samples to [0, 2, 0] after a first variation of 2.0 would leave the
    # cached chords in place, where the new samples have variation 4.0.
    value, computes = _frozen_values()[kind]
    before = computes()
    assert sorted(vars(value)) == sorted(FROZEN[kind])
    message = f"^{type(value).__name__}\\.{name} is read-only$"
    with pytest.raises(AttributeError, match=message):
        setattr(value, name, np.array([0, 2, 0]))
    with pytest.raises(AttributeError, match=message):
        delattr(value, name)
    assert computes() == before
    assert not any(a.flags.writeable for a in vars(value).values() if isinstance(a, np.ndarray))
