import re

import numpy as np
import pytest

from curve_lab import (CheckReport, InputError, LipschitzSample, MetricSpace, SampledCurve, ScheduleError,
                       ac_p_test, area_formula_check, check_contraction,
                       continuous_representative, discontinuity_measure,
                       luzin_n_probe, total_variation, triangle_wave,
                       variation_integral_check)
from conftest import circle_curve, euclidean_curve, l_polyline, line_space


def unit_segment(n):
    xs = np.linspace(0.0, 1.0, n)
    return euclidean_curve([[x, 0.0] for x in xs], xs)


class TestContraction:
    def test_probe_on_polyline_passes(self):
        curve = l_polyline()
        values = tuple(float(curve.space.dist(0, i)) for i in range(3))
        sample = LipschitzSample(space=curve.space, support=(0, 1, 2),
                                 values=values, L=1.0)
        report = check_contraction(curve, sample)
        assert report.verdict

    def test_double_distance_on_segment_residual_zero(self):
        curve = unit_segment(11)
        values = tuple(2.0 * curve.space.dist(0, i) for i in range(11))
        sample = LipschitzSample(space=curve.space, support=tuple(range(11)),
                                 values=values, L=2.0)
        report = check_contraction(curve, sample)
        assert report.verdict
        assert report.lhs == pytest.approx(report.rhs)
        assert report.residual <= report.tolerance

    def test_randomized_contraction_never_fails(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = rng.integers(5, 20)
            coords = rng.normal(size=(int(n), 2))
            curve = euclidean_curve(coords, np.arange(float(n)))
            support = tuple(int(i) for i in
                            rng.choice(int(n), size=min(4, int(n)), replace=False))
            values = tuple(float(v) for v in rng.normal(size=len(support)))
            from curve_lab import lip_constant
            L = max(lip_constant(support, values, curve.space), 1e-9)
            sample = LipschitzSample(space=curve.space, support=support,
                                     values=values, L=L)
            assert check_contraction(curve, sample).verdict


    def test_sample_on_another_space_rejected(self):
        # A 1-Lipschitz sample on points 50 apart, checked against a curve
        # on points 1 apart, would report a "fail" that says nothing.
        far = MetricSpace.from_points([[0.0, 0.0], [0.0, 50.0], [0.0, 100.0]])
        sample = LipschitzSample(space=far, support=(0, 1, 2), values=(0.0, 50.0, 100.0), L=1.0)
        curve = euclidean_curve([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(InputError, match="different spaces"):
            check_contraction(curve, sample)
        # The same coordinates in another object, or the same table, pass.
        same = MetricSpace.from_points([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        sample = LipschitzSample(space=same, support=(0, 2), values=(0.0, 2.0), L=1.0)
        assert check_contraction(curve, sample).verdict
        table = same.dist_block(range(3), range(3))
        on_table = SampledCurve(MetricSpace.from_matrix(table), [0.0, 1.0, 2.0], [0, 1, 2])
        sample = LipschitzSample(space=MetricSpace.from_matrix(table), support=(0, 2),
                                 values=(0.0, 2.0), L=1.0)
        assert check_contraction(on_table, sample).verdict
        with pytest.raises(InputError, match="different spaces"):
            check_contraction(curve, sample)


class TestAreaFormula:
    def test_segment_coordinate_function(self):
        curve = unit_segment(11)
        values = [curve.space.coords[i][0] for i in curve.samples]
        report = area_formula_check(curve, values)
        assert report.verdict
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(1.0)

    @pytest.mark.parametrize("tooth", [0.25, 0.125])
    def test_segment_triangle_wave(self, tooth):
        n = int(round(1 / (tooth / 2))) + 1
        curve = unit_segment(n)
        values = triangle_wave(curve.arc_coordinates(), tooth)
        report = area_formula_check(curve, values)
        assert report.verdict
        assert report.lhs == pytest.approx(1.0)

    def test_zero_weights(self):
        curve = unit_segment(9)
        values = np.linspace(0, 1, 9)
        report = area_formula_check(curve, values, weights=np.zeros(9))
        assert report.verdict
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_random_weights_still_exact(self):
        rng = np.random.default_rng(5)
        curve = unit_segment(33)
        values = rng.normal(size=33)
        weights = rng.uniform(0, 2, size=33)
        report = area_formula_check(curve, values, weights)
        assert report.verdict

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            area_formula_check(unit_segment(5), [0.0, 1.0])


class TestVariationIntegral:
    def test_simple_polyline(self):
        report = variation_integral_check(l_polyline())
        assert report.verdict
        assert report.lhs == pytest.approx(2.0)
        # _replace gives a changed copy, as the CLI's tolerance override uses.
        loose = report._replace(tolerance=1e6, verdict=False)
        assert (loose.tolerance, loose.verdict, loose.lhs, loose.context) == (
            1e6, False, report.lhs, report.context)
        assert (report.to_json()["verdict"], loose.to_json()["verdict"]) == ("pass", "fail")
        # The default context is an empty mapping that no report can change.
        bare = CheckReport("x", 0.0, 0.0, 0.0, 0.0, True)
        assert bare.to_json()["context"] == {}
        with pytest.raises(TypeError):
            bare.context["k"] = 1

    def test_doubled_back_segment(self):
        xs = np.linspace(0.0, 1.0, 5)
        space = line_space(xs)
        ids = [0, 1, 2, 3, 4, 3, 2, 1, 0]
        curve = SampledCurve(space, np.linspace(0, 1, 9), ids)
        report = variation_integral_check(curve)
        assert report.verdict
        assert report.lhs == pytest.approx(2.0)
        assert report.context["distinct_edges"] == 4

    def test_constant_curve(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 1.0], [0, 0])
        report = variation_integral_check(curve)
        assert report.verdict
        assert report.lhs == 0.0


class TestDiscontinuityMeasure:
    def test_step_function_two_triangles(self):
        n = 2001
        t = np.linspace(0, 1, n)
        values = (t >= 0.5).astype(float)
        profile = discontinuity_measure(values, 0.5, 0.1)
        assert profile.measure == pytest.approx(0.01, rel=0.1)

    def test_constant_zero(self):
        profile = discontinuity_measure(np.ones(100), 0.1, 0.2)
        assert profile.measure == 0.0
        assert profile.pair_count == 0

    def test_lipschitz_zero_when_eps_above_l_delta(self):
        t = np.linspace(0, 1, 500)
        profile = discontinuity_measure(t, 0.2, 0.1)
        assert profile.measure == 0.0

    def test_measure_bounded_by_square(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=300)
        profile = discontinuity_measure(values, 1e-6, 0.3)
        assert profile.measure <= 1.0 + 0.1

    def test_invalid_parameters(self):
        with pytest.raises(InputError):
            discontinuity_measure([0.0, 1.0], 0.0, 0.1)
        # NaN and inf scales are rejected too; an infinite delta used to
        # overflow the offset count, an infinite epsilon to pass everything.
        for eps, delta in ((np.nan, 0.1), (0.5, np.nan), (np.inf, 0.1), (0.5, np.inf)):
            with pytest.raises(InputError):
                discontinuity_measure([0.0, 1.0], eps, delta)

    @pytest.mark.parametrize("values", [[np.nan] * 10, [0.0] * 9 + [np.inf], [-np.inf, 0.0, 1.0]])
    def test_non_finite_values_rejected(self, values):
        # A NaN trace once gave measure 0.0, the profile of a continuous one.
        with pytest.raises(InputError, match="^trace values must be finite$"):
            discontinuity_measure(values, 0.5, 0.2)


class TestContinuousRepresentative:
    def test_corrupted_line_recovered(self):
        n = 200
        t = np.linspace(0, 1, n)
        values = t.copy()
        corrupted = [20, 77, 120, 150, 180]
        values[corrupted] += 1.0
        result = continuous_representative(values, [0.5, 0.25])
        assert result is not None
        cleaned, fraction = result
        assert fraction == pytest.approx(len(corrupted) / n)
        assert np.max(np.abs(cleaned - t)) < 0.1

    def test_genuine_step_reports_none(self):
        n = 200
        t = np.linspace(0, 1, n)
        values = (t >= 0.5).astype(float)
        assert continuous_representative(values, [0.5, 0.25]) is None

    def test_already_continuous_unchanged(self):
        t = np.linspace(0, 1, 100)
        result = continuous_representative(np.sin(3 * t), [0.5, 0.25])
        assert result is not None
        cleaned, fraction = result
        assert fraction == 0.0
        assert np.array_equal(cleaned, np.sin(3 * t))

    def test_idempotent(self):
        n = 150
        t = np.linspace(0, 1, n)
        values = t.copy()
        values[[30, 90]] -= 2.0
        first = continuous_representative(values, [0.5, 0.25])
        assert first is not None
        again = continuous_representative(first[0], [0.5, 0.25])
        assert again is not None
        assert np.array_equal(again[0], first[0])
        assert again[1] == 0.0

    def test_schedule_errors(self):
        values = np.linspace(0, 1, 50)
        with pytest.raises(ScheduleError):
            continuous_representative(values, [])
        with pytest.raises(ScheduleError):
            continuous_representative(values, [0.1, 0.2])
        with pytest.raises(ScheduleError):
            continuous_representative(values, [0.5], window=2)
        for sched in ([np.nan], [np.inf, 0.5]):
            with pytest.raises(ScheduleError):
                continuous_representative(values, sched)

    @pytest.mark.parametrize("window", [3.5, 5.0, True, False, "5", None, np.float64(5)])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ScheduleError, match=r"window must be an integer, got " + re.escape(repr(window))):
            continuous_representative(np.linspace(0, 1, 50), [0.5], window=window)

    def test_numpy_integer_window(self):
        values = np.linspace(0, 1, 50)
        values[20] = 5.0
        want = continuous_representative(values, [0.5], window=4)
        for window in (np.int64(4), np.int32(4), np.uint8(4)):
            got = continuous_representative(values, [0.5], window=window)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_overflowing_median_is_an_input_error(self):
        # Sample 4's far cluster has 1e308 and 1.7e308 in its middle, whose
        # mean overflows: the call must not return an inf or NaN trace.
        values = [1e308, 1.7e308, 1e308, 1.7e308, 0.0, 1e308, 1.7e308, 1e308, 1.7e308]
        with pytest.raises(InputError, match="trace values too large: the median replacing sample 4 overflows"):
            continuous_representative(values, [1.0], window=3)


class TestACP:
    def sqrt_curve(self, n):
        t = np.linspace(0.0, 1.0, n)
        coords = np.column_stack([np.sqrt(t), np.zeros(n)])
        return euclidean_curve(coords, t)

    @staticmethod
    def sqrt_refine(curve):
        n = (len(curve) - 1) * 10 + 1
        t = np.linspace(0.0, 1.0, n)
        coords = np.column_stack([np.sqrt(t), np.zeros(n)])
        return euclidean_curve(coords, t)

    def test_line_consistent_for_all_p(self):
        line = unit_segment(101)
        refine = lambda c: unit_segment((len(c) - 1) * 2 + 1)
        for p in (1.0, 2.0, float("inf")):
            report = ac_p_test(line, p, refine=refine)
            assert report.verdict == "AC_p-consistent"
            assert report.norm_estimate == pytest.approx(1.0)

    def test_sqrt_p1_consistent_p2_inconsistent(self):
        curve = self.sqrt_curve(1001)
        r1 = ac_p_test(curve, 1.0, refine=self.sqrt_refine, refinements=2)
        assert r1.verdict == "AC_p-consistent"
        assert r1.norm_estimate == pytest.approx(1.0)
        r2 = ac_p_test(curve, 2.0, refine=self.sqrt_refine, refinements=2)
        assert r2.verdict == "AC_p-inconsistent"
        assert r2.refinement_trend[-1] > r2.refinement_trend[0]

    def test_constant_curve_zero(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, np.linspace(0, 1, 11), np.zeros(11, dtype=int))
        for p in (1.0, 3.0, float("inf")):
            assert ac_p_test(curve, p).norm_estimate == 0.0

    def test_non_refinable_is_inconclusive(self):
        report = ac_p_test(self.sqrt_curve(100), 2.0)
        assert report.verdict == "inconclusive"

    def test_monotone_in_p_after_normalization(self):
        rng = np.random.default_rng(6)
        curve = euclidean_curve(rng.normal(size=(30, 2)), np.linspace(0, 1, 30))
        span = curve.b - curve.a
        norms = [ac_p_test(curve, p).norm_estimate / span ** (1.0 / p)
                 for p in (1.0, 1.5, 2.0, 4.0, 8.0)]
        assert all(b >= a - 1e-9 for a, b in zip(norms[:-1], norms[1:]))

    def test_p_below_one_rejected(self):
        with pytest.raises(InputError):
            ac_p_test(unit_segment(5), 0.5)
        with pytest.raises(InputError):
            ac_p_test(unit_segment(5), np.nan)
        assert ac_p_test(unit_segment(5), np.inf).p == np.inf


class TestLuzinN:
    def test_lipschitz_curve_passes(self):
        curve = unit_segment(101)
        report = luzin_n_probe(curve, [(0.4, 0.41)], 0.005)
        assert report.verdict

    def test_empty_null_set(self):
        curve = unit_segment(11)
        report = luzin_n_probe(curve, [(2.0, 3.0)], 0.01)
        assert report.verdict
        assert report.lhs == 0.0

    def test_jump_on_tiny_interval_fails(self):
        # Nearly flat except a unit jump crossed within one tiny step.
        xs = np.concatenate([np.linspace(0, 0.01, 6),
                             np.linspace(1.0, 1.01, 6)])
        times = np.concatenate([np.linspace(0, 0.499, 6),
                                np.linspace(0.501, 1.0, 6)])
        curve = euclidean_curve([[x, 0.0] for x in xs], times)
        report = luzin_n_probe(curve, [(0.499, 0.501)], 0.01)
        assert not report.verdict

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InputError):
            luzin_n_probe(unit_segment(5), [(0.5, 0.5)], 0.1)
        # Non-finite intervals and scales are rejected, not read as empty.
        for null_set, delta in (([(np.nan, np.nan)], 0.1), ([(-np.inf, np.inf)], 0.1),
                                ([(0.2, 0.4)], np.nan), ([(0.2, 0.4)], np.inf)):
            with pytest.raises(InputError):
                luzin_n_probe(unit_segment(5), null_set, delta)
