import itertools

import numpy as np
import pytest

from curve_lab import (DegenerateInputError, InputError, MetricSpace, Partition,
                       SampledCurve, arc_length_reparam, chord_arc_profile,
                       curve_stats, hausdorff1_content, load_curve_csv,
                       metric_speed, total_variation, variation_over_partition)
from conftest import circle_curve, euclidean_curve, l_polyline, line_space


class TestVariation:
    def test_l_polyline_full_partition(self):
        curve = l_polyline()
        assert variation_over_partition(curve, Partition((0.0, 0.5, 1.0))) == 2.0

    def test_l_polyline_coarse_partition(self):
        curve = l_polyline()
        value = variation_over_partition(curve, Partition((0.0, 1.0)))
        assert value == pytest.approx(np.sqrt(2.0))

    def test_constant_curve_zero(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 0.5, 1.0], [0, 0, 0])
        assert variation_over_partition(curve, Partition((0.0, 0.5, 1.0))) == 0.0
        assert total_variation(curve) == 0.0

    def test_off_grid_knot_rejected(self):
        with pytest.raises(InputError):
            variation_over_partition(l_polyline(), Partition((0.0, 0.3, 1.0)))

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
                part = Partition((0.0,) + tuple(float(k) for k in knots) + (7.0,))
                coarse = variation_over_partition(curve, part)
                assert coarse <= full + 1e-12
                # Every one-point refinement does not decrease the value.
                for extra in interior:
                    if float(extra) in part.knots:
                        continue
                    finer = Partition(tuple(sorted(part.knots + (float(extra),))))
                    assert variation_over_partition(curve, finer) >= coarse - 1e-12

    def test_curve_stats_total_is_finest_partition(self):
        curve = l_polyline()
        st = curve_stats(curve)
        assert st.total_variation == total_variation(curve)
        assert st.is_simple
        assert len(st.speed_profile) == 2


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
        i1, i2 = curve.time_index(0.01), curve.time_index(0.99)
        partial = float(np.sum(curve.chords()[i1:i2]))
        assert integral == pytest.approx(partial, rel=0.02)

    def test_window_without_support_rejected(self):
        curve = l_polyline()
        # Both window ends snap to the same grid time at t = 0.
        with pytest.raises(InputError):
            metric_speed(curve, 0.0, 1e-6)


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
