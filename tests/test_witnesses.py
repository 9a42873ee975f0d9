import numpy as np
import pytest

from curve_lab import (ForgeProblem, HorizonError, InputError, SampledCurve,
                       alternating_separated_witness, banach_steinhaus_forge,
                       diagonal_forge_problem, lip_constant, sawtooth_witness,
                       total_variation, triangle_wave,
                       variation_preserving_witness)
from conftest import (euclidean_curve, fold_aligned_curve, line_space,
                      random_monotone_polyline, sample_polyline)


class TestTriangleWave:
    def test_period_start(self):
        assert triangle_wave(0.0, 0.25) == 0.0

    def test_apex(self):
        assert triangle_wave(0.25, 0.25) == 0.25

    def test_falling_branch(self):
        assert triangle_wave(0.375, 0.25) == pytest.approx(0.125)

    def test_periodicity_and_range(self):
        t = np.linspace(0, 3, 301)
        w = triangle_wave(t, 0.25)
        assert np.all(w >= 0) and np.all(w <= 0.25)
        assert np.allclose(w, triangle_wave(t + 0.5, 0.25), atol=1e-12)

    def test_unit_slope(self):
        t = np.linspace(0, 1, 1001)
        w = triangle_wave(t, 0.1)
        slopes = np.abs(np.diff(w)) / np.diff(t)
        # Slope magnitude 1 except across the fold within a step.
        assert np.max(slopes) == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_tooth_rejected(self):
        with pytest.raises(InputError):
            triangle_wave(0.5, 0.0)
        with pytest.raises(InputError):
            triangle_wave(0.5, float("nan"))

    def test_tooth_with_an_infinite_period_rejected(self):
        # np.mod by an infinite period gave inf at a negative t, and nan when
        # 2 * tooth overflowed; a finite input never gives either.
        with pytest.raises(InputError, match="^tooth must be a finite number > 0, got inf$"):
            triangle_wave([-0.1, 0.3], float("inf"))
        with pytest.raises(InputError, match="^tooth period 2 \\* tooth must be a finite number > 0, got inf$"):
            triangle_wave(-0.1, 1e308)
        assert triangle_wave(-0.1, 8e307) == 0.0  # the largest teeth keep a finite period


class TestSawtoothWitness:
    def unit_segment(self, spacing):
        xs = np.arange(0.0, 1.0 + spacing / 2, spacing)
        return euclidean_curve([[x, 0.0] for x in xs], xs)

    def test_unit_segment_quarter_tooth_exact(self):
        witness = sawtooth_witness(self.unit_segment(0.125), 0.25)
        assert witness.certificates["composed_variation"] == pytest.approx(1.0)

    def test_tooth_accounting_bound(self):
        witness = sawtooth_witness(self.unit_segment(0.05), 0.3)
        v = witness.certificates["composed_variation"]
        # The grid floor gives up the three steps that cross a fold (at 0.3,
        # 0.6 and 0.9), not twice the tooth.
        assert witness.certificates["variation_floor"] == pytest.approx(1 - 3 * 0.05)
        assert witness.certificates["floor_met"] is True
        assert v >= witness.certificates["variation_floor"] - 1e-12
        assert v <= 1.0 + 1e-12

    def test_grid_floor_holds_on_jittered_spirals(self):
        # Generic grids: folds fall inside steps, where total variation less
        # twice the tooth does not hold, but the grid floor does.
        below_old_floor = 0
        for n in (50, 300, 1000):
            for seed in range(2):
                rng = np.random.default_rng([n, seed])
                t = np.linspace(0.0, 1.0, n)
                theta = rng.uniform(0.0, 2.0 * np.pi) + 6.0 * np.pi * t
                xy = (0.2 + t)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
                curve = euclidean_curve(xy + rng.normal(scale=1e-3, size=xy.shape), t)
                for tooth in (0.003, 0.05, 0.3):
                    certs = sawtooth_witness(curve, tooth).certificates
                    v = certs["composed_variation"]
                    assert certs["floor_met"] is True
                    assert v >= certs["variation_floor"] - 1e-9 * certs["total_variation"]
                    below_old_floor += v < certs["total_variation"] - 2 * tooth
        assert below_old_floor > 0

    def test_sup_bounded_by_tooth(self):
        rng = np.random.default_rng(2)
        vertices = random_monotone_polyline(rng)
        curve = fold_aligned_curve(vertices, 0.2)
        witness = sawtooth_witness(curve, 0.2)
        assert witness.certificates["sup_abs"] <= 0.2 + 1e-12

    def test_variation_accounting_identity(self):
        # On a fold-aligned grid the composed variation is the full wave
        # variation: total arc length minus the partial-tooth remainder.
        rng = np.random.default_rng(8)
        vertices = random_monotone_polyline(rng)
        tooth = 0.15
        curve = fold_aligned_curve(vertices, tooth)
        witness = sawtooth_witness(curve, tooth)
        length = total_variation(curve)
        remainder = length - witness.certificates["composed_variation"]
        # wave(s) has unit slope, so the only loss is the final partial tooth
        # folded onto itself: remainder < 2*tooth.
        assert -1e-9 <= remainder < 2 * tooth

    def test_realization_lipschitz_on_support(self):
        rng = np.random.default_rng(3)
        vertices = random_monotone_polyline(rng)
        curve = fold_aligned_curve(vertices, 0.3)
        witness = sawtooth_witness(curve, 0.3)
        sample = witness.realization
        assert lip_constant(sample.support, sample.values, curve.space) <= sample.L
        assert sample.L <= 1.0 + witness.certificates["chord_arc_defect"] + 1e-9

    def test_non_simple_rejected(self):
        space = line_space([0.0, 1.0])
        curve = SampledCurve(space, [0.0, 0.5, 1.0], [0, 1, 0])
        with pytest.raises(InputError):
            sawtooth_witness(curve, 0.1)

    def test_tooth_longer_than_curve_rejected(self):
        with pytest.raises(InputError, match="^tooth 1.5 exceeds curve length 1.0$"):
            sawtooth_witness(self.unit_segment(0.125), 1.5)
        with pytest.raises(InputError, match="^tooth nan is not a number$"):
            sawtooth_witness(self.unit_segment(0.125), float("nan"))


class TestVariationPreservingWitness:
    def test_unit_segment_slack(self):
        xs = np.arange(0.0, 1.0 + 0.0125, 0.025)
        curve = euclidean_curve([[x, 0.0] for x in xs], xs)
        witness = variation_preserving_witness(curve, 0.1)
        assert witness.certificates["tooth"] == pytest.approx(0.05)
        assert witness.certificates["composed_variation"] == pytest.approx(1.0)

    def test_l_polyline_slack(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        curve = fold_aligned_curve(vertices, 0.1)
        witness = variation_preserving_witness(curve, 0.2)
        assert witness.certificates["composed_variation"] >= 1.8 - 1e-9
        assert witness.certificates["target_met"] is True

    def test_contraction_upper_bound(self):
        rng = np.random.default_rng(4)
        vertices = random_monotone_polyline(rng)
        curve = fold_aligned_curve(vertices, 0.05)
        witness = variation_preserving_witness(curve, 0.1)
        v = witness.certificates["composed_variation"]
        assert v <= witness.realization.L * total_variation(curve) + 1e-9

    def test_target_missed_on_a_coarse_grid(self):
        # The 300-point spiral of the benchmark's cli-batch inputs at seed
        # 101: its steps of about 0.04 are close to the tooth of 0.05, so
        # the wave loses about half the length and misses the target.
        rng = np.random.default_rng(101)
        phase, scale = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.8, 1.2)
        t = np.linspace(0.0, 1.0, 300)
        theta = phase + 6.0 * np.pi * t
        xy = scale * (0.2 + t)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        certs = variation_preserving_witness(euclidean_curve(xy, t), 0.1).certificates
        assert certs["composed_variation"] < certs["variation_target"] - 5.0
        assert certs["target_met"] is False and certs["floor_met"] is True

    def test_nonpositive_slack_rejected(self):
        xs = np.linspace(0.0, 1.0, 9)
        curve = euclidean_curve([[x, 0.0] for x in xs], xs)
        with pytest.raises(InputError):
            variation_preserving_witness(curve, 0.0)
        with pytest.raises(InputError):
            variation_preserving_witness(curve, float("nan"))


class TestAlternatingWitness:
    def test_hand_example_on_line(self):
        space = line_space([0.0, 0.5, 1.2])
        witness = alternating_separated_witness(space, [0, 1, 2], [0.1, 0.2, 0.3])
        assert tuple(witness.realization.values) == (-0.1, 0.2, -0.3)
        assert witness.certificates["variation_lower_bound"] == pytest.approx(0.8)

    def test_singleton(self):
        space = line_space([0.0, 9.0])
        witness = alternating_separated_witness(space, [1], [0.4])
        assert tuple(witness.realization.values) == (-0.4,)
        assert witness.certificates["variation_lower_bound"] == 0.0
        assert witness.certificates["separation_margin"] == np.inf

    def test_equally_spaced_closed_form(self):
        eps, n = 0.3, 6
        # Spacing strictly above 2*eps so float rounding cannot dip below the
        # separation threshold.
        space = line_space(np.arange(n) * (2 * eps + 1e-9))
        witness = alternating_separated_witness(space, list(range(n)), [eps] * n)
        assert witness.certificates["variation_lower_bound"] == pytest.approx(2 * eps * (n - 1))

    def test_crucial_inequality_all_pairs(self):
        rng = np.random.default_rng(17)
        radii = rng.uniform(0.05, 0.4, size=8)
        gaps = radii[:-1] + radii[1:]
        xs = np.concatenate([[0.0], np.cumsum(gaps * rng.uniform(1.0, 2.0, 7))])
        space = line_space(xs)
        witness = alternating_separated_witness(space, list(range(8)), radii)
        v = witness.realization.values
        for i in range(8):
            for j in range(i + 1, 8):
                assert abs(v[i] - v[j]) <= radii[i] + radii[j] <= space.dist(i, j) + 1e-12

    def test_lower_bound_attained_by_ordered_traversal(self):
        space = line_space([0.0, 0.5, 1.2, 2.5])
        radii = [0.1, 0.2, 0.3, 0.35]
        witness = alternating_separated_witness(space, [0, 1, 2, 3], radii)
        v = witness.realization.values
        traversal = sum(abs(b - a) for a, b in zip(v[:-1], v[1:]))
        assert traversal == pytest.approx(witness.certificates["variation_lower_bound"])

    def test_separation_failure_reports_pair(self):
        space = line_space([0.0, 0.2])
        with pytest.raises(InputError, match=r"\(0,1\)"):
            alternating_separated_witness(space, [0, 1], [0.3, 0.3])
        # Plain floats, whatever the numpy version: not np.float64(0.2).
        with pytest.raises(InputError, match=r"^separation precondition fails for pair \(0,1\): "
                                             r"dist=0\.2 < radius sum 0\.6$"):
            alternating_separated_witness(space, np.array([0, 1]), np.array([0.3, 0.3]))


class TestForge:
    def test_depth_1_initialization(self):
        result = banach_steinhaus_forge(diagonal_forge_problem(), 1)
        assert result.alphas == (0.5,)
        assert result.indices == (1,)

    def test_toy_depth_4_reaches_3(self):
        result = banach_steinhaus_forge(diagonal_forge_problem(), 4)
        assert result.level_bounds[-1] >= 3.0

    def test_selection_inequalities_zero_tolerance(self):
        result = banach_steinhaus_forge(diagonal_forge_problem(), 6)
        for slack in result.selection_slacks:
            assert slack["cap_inequality"] >= 0.0
            assert slack["growth_inequality"] >= 0.0

    def test_homogeneity_spot_check(self):
        problem = diagonal_forge_problem()
        result = banach_steinhaus_forge(problem, 4)
        combo = tuple(zip(result.indices, result.alphas))
        doubled = tuple((m, 2 * a) for m, a in combo)
        for m in result.indices:
            assert problem.functional(m, doubled) == pytest.approx(
                2 * problem.functional(m, combo))

    def test_horizon_exhaustion_reports_level(self):
        problem = ForgeProblem(functional=diagonal_forge_problem().functional,
                               horizon=10)
        with pytest.raises(HorizonError) as exc_info:
            banach_steinhaus_forge(problem, 8)
        assert exc_info.value.level is not None
        assert exc_info.value.level >= 1
        # The problem stays mutable; its horizon is a nonnegative integer.
        problem.horizon = 10**6
        assert banach_steinhaus_forge(problem, 8).indices[0] == 1
        assert ForgeProblem(problem.functional).horizon == 10**6
        assert ForgeProblem(problem.functional, np.int64(0)).horizon == 0
        for bad in (-5, 2.5, True, "10"):
            with pytest.raises(InputError, match="^horizon must be an integer >= 0, got "):
                ForgeProblem(problem.functional, bad)

    def test_alpha_cap_decays_geometrically(self):
        result = banach_steinhaus_forge(diagonal_forge_problem(), 7)
        for j, alpha in enumerate(result.alphas[1:], start=1):
            assert alpha <= 2.0 ** (-j)

    def test_invalid_depth(self):
        with pytest.raises(InputError):
            banach_steinhaus_forge(diagonal_forge_problem(), 0)
