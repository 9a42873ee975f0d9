import itertools
import json

import numpy as np
import pytest

from curve_lab import (InconsistentDataError, InputError, LipschitzSample,
                       MetricSpace, SampledCurve, lip_constant, mcshane_extend_all,
                       metric_speed, probe_family, speed_via_probes, total_variation)
from curve_lab import lipschitz
from conftest import circle_curve, euclidean_curve, line_space


class TestLipConstant:
    def test_unit_slope_pair(self):
        space = line_space([0.0, 1.0])
        assert lip_constant([0, 1], [0.0, 1.0], space) == 1.0

    @pytest.mark.parametrize("values", [["0", "1"], [False, True], np.array([False, True])])
    def test_values_that_are_not_numbers_are_input_errors(self, values):
        # Values follow the LipschitzSample rule: numpy reads "1" and True as 1.0.
        with pytest.raises(InputError, match="^values must hold numbers"):
            lip_constant([0, 1], values, line_space([0.0, 1.0]))

    def test_constant_values(self):
        space = line_space([0.0, 0.5, 1.0])
        assert lip_constant([0, 1, 2], [3.0, 3.0, 3.0], space) == 0.0

    def test_worst_pair_wins(self):
        space = line_space([0.0, 0.1, 1.0])
        assert lip_constant([0, 1, 2], [0.0, 0.3, 1.0], space) == pytest.approx(3.0)

    def test_duplicate_points_with_differing_values(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(InconsistentDataError):
            lip_constant([0, 0], [0.0, 1.0], space)

    def test_a_bool_among_int_ids_is_an_error(self):
        # numpy reads [0, True, 2] as an int array; the bool is still no id.
        space = line_space(range(5))
        sample = LipschitzSample(space, (0, 4), (0.0, 1.0), 1.0)
        for call in (lambda: lip_constant([0, True, 2], [0.0, 1.0, 2.0], space),
                     lambda: mcshane_extend_all(sample, (0, np.True_, 2))):
            with pytest.raises(InputError, match=r"^point id True is not an integer$"):
                call()

    @pytest.mark.parametrize("values", [[0.0, np.inf, 1.0], [0.0, 1.0, np.inf], [np.nan, 0.0, 1.0],
                                        [[0.0, 0.0], [1.0, -np.inf], [2.0, 0.0]]])
    def test_non_finite_values_rejected(self, values):
        # An error wherever the value sits, not a nan or an inf that depends
        # on which pairs meet it.
        space = line_space([0.0, 0.5, 1.0])
        with pytest.raises(InputError, match="values must be finite"):
            lip_constant([0, 1, 2], values, space)


def extend_at(sample, query, envelope="upper"):
    return mcshane_extend_all(sample, [query], envelope=envelope)[0]


class TestMcShane:
    def test_linear_interpolation_forced_at_l_equals_1(self):
        space = line_space([0.0, 1.0, 0.5])
        sample = LipschitzSample(space=space, support=(0, 1), values=(0.0, 1.0), L=1.0)
        assert extend_at(sample, 2) == pytest.approx(0.5)

    def test_agrees_on_support(self):
        space = line_space([0.0, 0.25, 1.0])
        sample = LipschitzSample(space=space, support=(0, 2), values=(0.125, 0.875), L=1.0)
        assert extend_at(sample, 0) == 0.125
        assert extend_at(sample, 2) == 0.875

    def test_upper_and_lower_envelopes(self):
        space = line_space([0.0, 1.0, 0.5])
        sample = LipschitzSample(space=space, support=(0, 1), values=(0.0, 0.0), L=1.0)
        assert extend_at(sample, 2, envelope="upper") == pytest.approx(0.5)
        assert extend_at(sample, 2, envelope="lower") == pytest.approx(-0.5)
        assert extend_at(sample, 2, envelope="average") == pytest.approx(0.0)

    def test_declared_l_below_lip_constant_rejected(self, monkeypatch):
        space = line_space([0.0, 1.0])
        with pytest.raises(InconsistentDataError):
            LipschitzSample(space=space, support=(0, 1), values=(0.0, 2.0), L=1.0)
        with pytest.raises(InconsistentDataError):
            LipschitzSample(space, (0, 1), (0.0, 2.0), 1.0)
        # Positional and keyword arguments build the same read-only sample.
        for sample in (LipschitzSample(space, (0, 1), (0.0, 1.0), 1.0),
                       LipschitzSample(space=space, support=(0, 1), values=(0.0, 1.0), L=1.0)):
            assert (sample.space, tuple(sample.support), tuple(sample.values), sample.L) == (
                space, (0, 1), (0.0, 1.0), 1.0)
            with pytest.raises(AttributeError):
                sample.L = 2.0
        # A given _lip is trusted: the data's constant is not recomputed.
        monkeypatch.setattr(lipschitz, "lip_constant", None)
        LipschitzSample(space, (0, 1), (0.0, 1.0), 1.0, _lip=1.0)
        with pytest.raises(InconsistentDataError):
            LipschitzSample(space, (0, 1), (0.0, 1.0), 1.0, 2.0)

    def test_extension_is_l_lipschitz_exhaustive(self):
        rng = np.random.default_rng(9)
        space = MetricSpace.from_points(rng.normal(size=(25, 2)))
        support = (0, 5, 11, 17)
        values = tuple(float(v) for v in rng.normal(size=4))
        L = lip_constant(support, values, space)
        sample = LipschitzSample(space=space, support=support, values=values, L=L)
        for envelope in ("upper", "lower", "average"):
            ext = mcshane_extend_all(sample, envelope=envelope)
            assert lip_constant(range(25), ext, space) <= L * (1 + 1e-9)
            for e, v in zip(support, values):
                assert ext[e] == pytest.approx(v, abs=1e-12)

    def test_json_round_trip(self):
        space = line_space([0.0, 1.0])
        sample = LipschitzSample(space=space, support=(0, 1), values=(0.0, 1.0), L=1.5)
        doc = sample.to_json()
        back = LipschitzSample.from_json(doc, space)
        assert tuple(back.support) == tuple(sample.support)
        assert tuple(back.values) == tuple(sample.values)
        assert back.L == sample.L
        for bad in ({"support": [0, 1], "values": [0.0, 1.0]},
                    {"support": [0, 1], "values": [0.0, float("nan")], "L": 1.5},
                    {"support": [0, 1], "values": [0.0, 1.0], "L": float("inf")},
                    {"support": [0, 1], "values": [0.0, "one"], "L": 1.5},
                    {"support": [0, 1], "values": [0.0, None], "L": 1.5},
                    [[0, 1], [0.0, 1.0], 1.5]):
            with pytest.raises(InputError):
                LipschitzSample.from_json(bad, space)


class TestLipschitzSampleInputs:
    @pytest.mark.parametrize("kind", [list, np.array])
    def test_sample_keeps_frozen_copies(self, kind):
        # Changing the caller's data after the L check must not change the
        # sample, its envelopes or its document.
        space = line_space([0.0, 1.0, 2.0, 3.0])
        support, values = kind([0, 1, 2]), kind([0.0, 50.0, 2.0])
        sample = LipschitzSample(space, support, values, 50.0)
        doc = sample.to_json()
        envelopes = [mcshane_extend_all(sample, envelope=e) for e in ("upper", "lower", "average")]
        support[1], values[1] = 3, 99.0
        assert tuple(sample.support) == (0, 1, 2) and tuple(sample.values) == (0.0, 50.0, 2.0)
        assert not sample.support.flags.writeable and not sample.values.flags.writeable
        for e, env in zip(("upper", "lower", "average"), envelopes):
            assert np.array_equal(mcshane_extend_all(sample, envelope=e), env)
        assert np.array_equal(envelopes[1], [0.0, 50.0, 2.0, -48.0])
        assert sample.to_json() == doc == {"support": [0, 1, 2], "values": [0.0, 50.0, 2.0], "L": 50.0}

    @pytest.mark.parametrize("values", [("a", 1.0), (None, 1.0), (True, False), (0.0, np.True_),
                                        np.array([True, False]), [[0.0], [1.0]]])
    def test_values_that_are_not_numbers_are_input_errors(self, values):
        with pytest.raises(InputError, match="^sample values "):  # None reads as nan, as in MetricSpace
            LipschitzSample(line_space([0.0, 1.0]), (0, 1), values, 1.0)

    @pytest.mark.parametrize("L", ["1", True, np.True_])
    def test_l_that_is_not_a_number_is_an_input_error(self, L):
        with pytest.raises(InputError, match="^Lipschitz sample L .* is not a number$"):
            LipschitzSample(line_space([0.0, 1.0]), (0, 1), (0.0, 1.0), L)

    def test_non_finite_values_and_l_are_named_apart(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(InputError, match="^sample values must be finite$"):
            LipschitzSample(space, (0, 1), (None, 1.0), 1.0)
        for L in (np.inf, np.nan):
            with pytest.raises(InputError, match=r"^Lipschitz sample L (must be a finite number >= 0, got inf|nan is not a number)$"):
                LipschitzSample(space, (0, 1), (0.0, 1.0), L)

    def test_l_is_kept_as_a_float(self):
        sample = LipschitzSample(line_space([0.0, 1.0]), (0, 1), (0.0, 1.0), np.float32(1))
        assert type(sample.L) is float
        assert json.dumps(sample.to_json()) == '{"support": [0, 1], "values": [0.0, 1.0], "L": 1.0}'

    def test_float_ids_come_back_as_ints(self):
        sample = LipschitzSample(line_space([0.0, 1.0]), (0.0, 1.0), (0, 1), 1.0)
        assert sample.support.dtype.kind == "i" and sample.values.dtype == float
        doc = sample.to_json()
        assert [type(i) for i in doc["support"]] == [int, int]
        assert [type(v) for v in doc["values"]] == [float, float]
        with pytest.raises(InputError, match="^point id 0.5 is not an integer$"):
            LipschitzSample(line_space([0.0, 1.0]), (0.5, 1.0), (0.0, 1.0), 1.0)

    def test_document_round_trips(self):
        space = line_space(np.linspace(0.0, 1.0, 7))
        sample = LipschitzSample(space, np.arange(0, 7, 2), np.array([0.5, -0.0, 1e-300, 0.25]), 3.0)
        back = LipschitzSample.from_json(json.loads(json.dumps(sample.to_json())), space)
        assert back.to_json() == sample.to_json()
        assert np.array_equal(back.support, sample.support) and back.L == sample.L
        assert back.values.tobytes() == sample.values.tobytes()


class TestProbeFamily:
    def test_single_probe(self):
        curve = euclidean_curve([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
        family = probe_family(curve, 1)
        assert list(family.centers) == [0]

    def test_no_center_repeats_at_distance_zero(self):
        # Samples 0 and 2 are distinct points 1e-200 apart, at distance 0.
        pts = [[0.0, 0.0], [1.0, 1.0], [1e-200, 0.0]]
        assert probe_family(euclidean_curve(pts), 2).centers == (0, 1)
        with pytest.raises(InputError, match="distinct points 0 and 2 are at distance 0"):
            probe_family(euclidean_curve(pts), 3)
        pts.append([2.0, 0.0])
        assert probe_family(euclidean_curve(pts), 3).centers == (0, 3, 1)
        with pytest.raises(InputError, match="distinct points 0 and 2 are at distance 0"):
            probe_family(euclidean_curve(pts), 4)

    def test_segment_two_probes_are_endpoints(self):
        coords = [[t, 0.0] for t in np.linspace(0, 1, 11)]
        curve = euclidean_curve(coords, np.linspace(0, 1, 11))
        family = probe_family(curve, 2)
        assert set(family.centers) == {0, 10}

    def test_probes_are_1_lipschitz(self):
        curve = circle_curve(64)
        family = probe_family(curve, 8)
        values = curve.space.pair_distances(np.arange(curve.space.n)[:, None], family.centers)
        for k in range(len(family.centers)):
            assert lip_constant(range(curve.space.n), values[:, k], curve.space) <= 1 + 1e-12

    def test_oversized_n_clamped_with_warning(self):
        curve = euclidean_curve([[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
        with pytest.warns(UserWarning):
            family = probe_family(curve, 10)
        assert len(family.centers) == 2

    def test_probe_contraction_over_partitions(self):
        rng = np.random.default_rng(21)
        coords = rng.normal(size=(7, 2))
        curve = euclidean_curve(coords, np.arange(7.0))
        family = probe_family(curve, 7)
        interior = [1, 2, 3, 4, 5]
        for k, center in enumerate(family.centers):
            values = {i: curve.space.dist(center, int(curve.samples[i]))
                      for i in range(7)}
            for r in range(len(interior) + 1):
                for knots in itertools.combinations(interior, r):
                    idx = [0, *knots, 6]
                    h_var = sum(abs(values[i2] - values[i1]) for i1, i2 in zip(idx[:-1], idx[1:]))
                    ids = curve.samples[idx]
                    assert h_var <= np.sum(curve.space.pair_distances(ids[:-1], ids[1:])) + 1e-12


class TestSpeedViaProbes:
    def test_line_with_full_family(self):
        coords = [[t, 0.0] for t in np.linspace(0, 1, 101)]
        curve = euclidean_curve(coords, np.linspace(0, 1, 101))
        family = probe_family(curve, 101)
        assert speed_via_probes(curve, family, 0.5, 0.05) == pytest.approx(1.0)

    def test_constant_curve(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, np.linspace(0, 1, 11), np.zeros(11, dtype=int))
        family = probe_family(curve, 1)
        assert speed_via_probes(curve, family, 0.5, 0.2) == 0.0

    def test_full_family_attains_chord_quotient_per_step(self):
        rng = np.random.default_rng(31)
        coords = rng.normal(size=(9, 2))
        curve = euclidean_curve(coords, np.arange(9.0))
        family = probe_family(curve, 9)
        for i in range(8):
            t_mid = 0.5 * (curve.times[i] + curve.times[i + 1])
            probe_q = speed_via_probes(curve, family, t_mid, 0.5)
            assert probe_q == pytest.approx(curve.step_quotients()[i])

    def test_circle_probes_match_metric_speed(self):
        curve = circle_curve(2000)
        family = probe_family(curve, 32)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.05, 0.95, size=20):
            ms = metric_speed(curve, t, 2e-3)
            ps = speed_via_probes(curve, family, t, 2e-3)
            assert ps <= ms * (1 + 1e-9)
            assert ps == pytest.approx(ms, rel=0.05)

    def test_probes_from_another_space_are_rejected(self):
        # A smaller space once gave a bare IndexError; one of the same size
        # a wrong speed from the other space's distances.
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(40, 2))
        curve = euclidean_curve(coords, np.linspace(0.0, 1.0, 40))
        for other in (coords[:10], rng.normal(size=(40, 2))):
            family = probe_family(euclidean_curve(other, np.linspace(0.0, 1.0, len(other))), 8)
            with pytest.raises(InputError, match="probe family and curve live on different spaces"):
                speed_via_probes(curve, family, 0.5, 0.1)
        # A family built on an equal copy of the space is the same family.
        copy = probe_family(euclidean_curve(coords.copy(), np.linspace(0.0, 1.0, 40)), 8)
        assert speed_via_probes(curve, copy, 0.5, 0.1) == speed_via_probes(curve, probe_family(curve, 8), 0.5, 0.1)

    @pytest.mark.parametrize("side", ["lft", None])
    def test_unknown_side_is_named(self, side):
        curve = circle_curve(64)
        with pytest.raises(InputError, match=f"^unknown side {side!r}$"):
            speed_via_probes(curve, probe_family(curve, 4), 0.5, 0.1, side=side)

