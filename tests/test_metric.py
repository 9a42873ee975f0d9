import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curve_lab import (InputError, MetricSpace, maximal_separated_net,
                       metric_projection, validate_metric)
from conftest import line_space


class TestValidateMetric:
    def test_two_point_metric_passes(self):
        assert validate_metric([[0, 1], [1, 0]]).passed

    def test_asymmetry_witnessed(self):
        report = validate_metric([[0, 1], [2, 0]])
        assert not report.passed
        witnesses = [v.witness for v in report.by_axiom("symmetry")]
        assert (0, 1) in witnesses

    def test_triangle_violation_witnessed(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert not report.passed
        triples = {tuple(sorted(v.witness)) for v in report.by_axiom("triangle")}
        assert (0, 1, 2) in triples

    def test_zero_diagonal_and_positivity(self):
        report = validate_metric([[1, 0], [0, 0]])
        assert report.by_axiom("zero-diagonal")
        assert report.by_axiom("positivity")

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            validate_metric([[0, 1]])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            validate_metric([[0, np.inf], [np.inf, 0]])

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


class TestMetricSpaceConstruction:
    def test_duplicate_euclidean_points_rejected(self):
        with pytest.raises(InputError):
            MetricSpace.from_points([[0, 0], [0, 0]])

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
                                     [[0, 1], [1, 0]]])
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


class TestMetricProjection:
    def test_nearer_endpoint(self):
        space = line_space([0.0, 1.0, 0.4])
        assert metric_projection(space, 2, [0, 1]) == 0

    def test_member_projects_to_itself(self):
        space = line_space([0.0, 1.0])
        assert metric_projection(space, 1, [0, 1]) == 1

    def test_tie_breaks_to_lowest_id(self):
        # point 1 at 0.5 is equidistant from ids 0 and 2.
        space = line_space([0.0, 0.5, 1.0])
        assert metric_projection(space, 1, [2, 0]) == 0

    def test_projection_minimizes_exhaustively(self):
        rng = np.random.default_rng(2)
        space = MetricSpace.from_points(rng.normal(size=(15, 2)))
        target = [3, 7, 11, 14]
        for x in range(space.n):
            best = metric_projection(space, x, target)
            assert all(space.dist(x, best) <= space.dist(x, y) for y in target)

    def test_empty_target_error(self):
        with pytest.raises(InputError):
            metric_projection(line_space([0.0, 1.0]), 0, [])
