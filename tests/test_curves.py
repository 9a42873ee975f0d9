import itertools

import numpy as np
import pytest

from curve_lab import (DegenerateInputError, InputError, MetricSpace,
                       SampledCurve, arc_length_reparam, chord_arc_profile,
                       hausdorff1_content, load_curve_csv, metric_speed,
                       stats_json, total_variation)
from conftest import circle_curve, euclidean_curve, l_polyline, line_space


def subset_variation(curve, idx):
    """Variation over the partition of the grid times at the given indices."""
    ids = curve.samples[idx]
    return float(np.sum(curve.space.pair_distances(ids[:-1], ids[1:])))


class TestVariation:
    def test_l_polyline_full_partition(self):
        curve = l_polyline()
        assert subset_variation(curve, [0, 1, 2]) == 2.0

    def test_l_polyline_coarse_partition(self):
        curve = l_polyline()
        value = subset_variation(curve, [0, 2])
        assert value == pytest.approx(np.sqrt(2.0))

    def test_constant_curve_zero(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 0.5, 1.0], [0, 0, 0])
        assert subset_variation(curve, [0, 1, 2]) == 0.0
        assert total_variation(curve) == 0.0

    def test_total_variation_l_polyline(self):
        assert total_variation(l_polyline()) == 2.0

    def test_regular_polygon_approximates_circumference(self):
        curve = circle_curve(360)
        # Closed chord sum: n-gon perimeter minus the unsampled closing chord.
        perimeter = total_variation(curve) + curve.space.dist(0, 359)
        assert perimeter == pytest.approx(2 * np.pi, abs=1e-3)

    def test_refinement_monotonicity_exhaustive(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(8, 2))
        curve = euclidean_curve(coords, np.arange(8.0))
        interior = list(range(1, 7))
        full = total_variation(curve)
        for r in range(len(interior) + 1):
            for knots in itertools.combinations(interior, r):
                idx = [0, *knots, 7]
                coarse = subset_variation(curve, idx)
                assert coarse <= full + 1e-12
                # Every one-point refinement does not decrease the value.
                for extra in interior:
                    if extra in idx:
                        continue
                    finer = sorted(idx + [extra])
                    assert subset_variation(curve, finer) >= coarse - 1e-12

    def test_curve_stats_total_is_finest_partition(self):
        curve = l_polyline()
        st = stats_json(curve)
        assert st["total_variation"] == total_variation(curve) == subset_variation(curve, [0, 1, 2])
        assert st["is_simple"] is True
        assert st["speed_profile"] == list(curve.step_quotients()) == [2.0, 2.0]


class TestArcLengthReparam:
    def test_l_polyline_times(self):
        rep = arc_length_reparam(l_polyline())
        assert np.allclose(rep.times, [0.0, 1.0, 2.0])

    def test_unit_speed_line_is_fixed_point(self):
        curve = euclidean_curve([[t, 0.0] for t in np.linspace(0, 1, 11)],
                                np.linspace(0, 1, 11))
        rep = arc_length_reparam(curve)
        assert np.allclose(rep.times, curve.times)

    def test_repeated_middle_sample_collapsed(self):
        space = line_space([0.0, 1.0, 2.0])
        curve = SampledCurve(space, [0.0, 0.4, 0.5, 1.0], [0, 1, 1, 2])
        rep = arc_length_reparam(curve)
        assert len(rep) == 3
        assert total_variation(rep) == total_variation(curve) == 2.0

    def test_unit_per_step_speed(self):
        rng = np.random.default_rng(1)
        curve = euclidean_curve(rng.normal(size=(12, 3)), np.arange(12.0))
        rep = arc_length_reparam(curve)
        assert np.allclose(rep.step_quotients(), 1.0, atol=1e-12)
        assert rep.times[-1] == pytest.approx(total_variation(curve))

    def test_zero_length_curve_degenerate(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 1.0], [0, 0])
        with pytest.raises(DegenerateInputError):
            arc_length_reparam(curve)


class TestMetricSpeed:
    def test_unit_line_speed_one(self):
        curve = euclidean_curve([[t, 0.0] for t in np.linspace(0, 1, 101)],
                                np.linspace(0, 1, 101))
        for t in (0.25, 0.5, 0.77):
            assert metric_speed(curve, t, 0.05) == pytest.approx(1.0)

    def test_constant_curve_zero_speed(self):
        space = line_space([0.0, 5.0])
        curve = SampledCurve(space, np.linspace(0, 1, 21), np.zeros(21, dtype=int))
        assert metric_speed(curve, 0.5, 0.1) == 0.0

    def test_dense_circle_speed(self):
        curve = circle_curve(10_000)
        for t in (0.2, 0.5, 0.8):
            assert metric_speed(curve, t, 1e-3) == pytest.approx(2 * np.pi, rel=1e-2)

    def test_one_sided_at_endpoints(self):
        curve = l_polyline()
        assert metric_speed(curve, 0.0, 0.5, side="right") == pytest.approx(2.0)
        assert metric_speed(curve, 1.0, 0.5, side="left") == pytest.approx(2.0)

    def test_speed_integrates_to_variation(self):
        # Trapezoid integral of the speed of a densely sampled smooth curve.
        n = 2000
        t = np.linspace(0.0, 1.0, n + 1)
        coords = np.column_stack([t, np.sin(2 * t)])
        curve = euclidean_curve(coords, t)
        grid = np.linspace(0.01, 0.99, 99)
        speeds = [metric_speed(curve, x, 5e-3) for x in grid]
        integral = np.trapezoid(speeds, grid)
        # Compare against the variation of the same subinterval [0.01, 0.99].
        i1, i2 = np.searchsorted(curve.times, [0.01, 0.99])
        assert (curve.times[i1], curve.times[i2]) == (0.01, 0.99)
        partial = float(np.sum(curve.chords()[i1:i2]))
        assert integral == pytest.approx(partial, rel=0.02)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_step_speed_is_the_step_quotient(self, dim):
        # A one-step window measures the chord that step_quotients divides,
        # with the same distance formula, so the two agree bit for bit.
        rng = np.random.default_rng(dim)
        t = np.cumsum(rng.uniform(0.5, 1.5, 200))
        curve = euclidean_curve(np.cumsum(rng.normal(size=(200, dim)), axis=0), t)
        speeds = [metric_speed(curve, t[i], t[i + 1] - t[i], side="right") for i in range(199)]
        assert np.array(speeds).tobytes() == curve.step_quotients().tobytes()

    def test_window_without_support_rejected(self):
        curve = l_polyline()
        # Both window ends snap to the same grid time at t = 0.
        with pytest.raises(InputError):
            metric_speed(curve, 0.0, 1e-6)
        for window in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="window must be positive and finite"):
                metric_speed(curve, 0.5, window)


class TestHausdorff1Content:
    def test_segment_of_1001_points(self):
        space = line_space(np.linspace(0.0, 1.0, 1001))
        value = hausdorff1_content(space, range(1001), 0.01)
        assert 1.0 <= value <= 1.1

    def test_single_point_zero(self):
        space = line_space([0.3, 9.0])
        for delta in (1e-3, 0.1, 10.0):
            assert hausdorff1_content(space, [0], delta) == 0.0

    def test_two_distant_points(self):
        space = line_space([0.0, 1.0])
        assert hausdorff1_content(space, [0, 1], 0.1) <= 0.2

    def test_content_tracks_length_of_simple_curve(self):
        curve = circle_curve(2000)
        spacing = total_variation(curve) / 1999
        value = hausdorff1_content(curve.space, curve.samples, 2 * spacing)
        assert value == pytest.approx(total_variation(curve), rel=0.1)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(InputError):
            hausdorff1_content(line_space([0.0, 1.0]), [0, 1], 0.0)
        with pytest.raises(InputError):
            hausdorff1_content(line_space([0.0, 1.0]), [0, 1], float("nan"))


class TestChordArcProfile:
    def test_straight_segment_all_ones(self):
        curve = euclidean_curve([[t, 0.0] for t in np.linspace(0, 1, 9)],
                                np.linspace(0, 1, 9))
        assert np.allclose(chord_arc_profile(curve), 1.0)

    def test_right_angle_corner(self):
        curve = l_polyline()
        profile = chord_arc_profile(curve)
        assert profile[0] == pytest.approx(np.sqrt(2.0))

    def test_smooth_arc_ratios_approach_one(self):
        coarse = circle_curve(64)
        fine = circle_curve(1024)
        worst = lambda c: float(np.max(chord_arc_profile(c)))
        assert worst(fine) < worst(coarse)
        assert worst(fine) == pytest.approx(1.0, abs=1e-4)

    def test_non_simple_rejected(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 0.5, 1.0], [0, 1, 0])
        with pytest.raises(InputError):
            chord_arc_profile(curve)

    def test_is_simple_matches_unique(self):
        space = line_space(np.arange(30.0))
        rng = np.random.default_rng(5)
        for case in range(300):
            ids = rng.integers(0, 30, int(rng.integers(2, 25)))
            if case % 3 == 0:
                ids[-1] = ids[0]  # repeat in the first and last positions
            elif case % 3 == 1:
                ids = rng.permutation(30)[:len(ids)]
            curve = SampledCurve(space, np.arange(len(ids)), ids)
            assert curve.is_simple() == (len(np.unique(ids)) == len(ids)), case

    def test_zero_span_rejected(self):
        # Samples 0 and 2 are distinct points 1e-200 apart, at distance 0.
        space = MetricSpace.from_points([[0.0, 0.0], [1.0, 1.0], [1e-200, 0.0]])
        curve = SampledCurve(space, [0.0, 0.5, 1.0], [0, 1, 2])
        with pytest.raises(InputError, match=r"points 0 and 2 \(samples 0 and 2\) are at distance 0"):
            chord_arc_profile(curve)


class TestSampledCurve:
    def test_caller_arrays_stay_writable(self):
        # The curve freezes its own copies of the times and samples.
        times, samples = np.array([0.0, 0.5, 1.0]), np.array([0, 1, 2])
        curve = SampledCurve(line_space([0.0, 1.0, 3.0]), times, samples)
        times[1], samples[1] = 0.25, 2
        assert times.flags.writeable and samples.flags.writeable
        assert curve.times.tolist() == [0.0, 0.5, 1.0] and curve.samples.tolist() == [0, 1, 2]
        assert not (curve.times.flags.writeable or curve.samples.flags.writeable)

    @pytest.mark.parametrize("samples, message", [
        ([0, 1.9, 2], "point id 1.9 is not an integer"),
        ([True, False, True], "point id True is not an integer"),
        ([0, "1", 2], "point id '1' is not an integer"),
        ([0, 1, 3], r"point id 3 out of range \[0, 3\)"),
    ])
    def test_sample_ids_are_point_ids(self, samples, message):
        # Sample ids pass the space's id check: none is truncated, read
        # from a bool or parsed from a string.
        with pytest.raises(InputError, match=f"^{message}$"):
            SampledCurve(line_space([0.0, 1.0, 3.0]), [0.0, 0.5, 1.0], samples)

    def test_csv_sample_id_out_of_range(self):
        with pytest.raises(InputError, match=r"^point id -1 out of range \[0, 2\)$"):
            load_curve_csv("t,point_id\n0,0\n1,-1\n", line_space([0.0, 2.0]))


class TestCurveIO:
    def test_point_id_csv_requires_space(self):
        with pytest.raises(InputError):
            load_curve_csv("t,point_id\n0,0\n1,1\n")

    def test_point_id_csv(self):
        space = line_space([0.0, 2.0])
        curve = load_curve_csv("t,point_id\n0,0\n1,1\n", space)
        assert total_variation(curve) == 2.0

    def test_euclidean_csv(self):
        curve = load_curve_csv("t,x1,x2\n0,0,0\n0.5,1,0\n1,1,1\n")
        assert total_variation(curve) == 2.0

    def test_bad_header_rejected(self):
        with pytest.raises(InputError):
            load_curve_csv("time,x\n0,0\n1,1\n")

    def test_times_must_increase(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(InputError):
            SampledCurve(space, [0.0, 0.0], [0, 1])
        with pytest.raises(InputError, match="finite"):
            SampledCurve(space, [float("-inf"), 0.0], [0, 1])
