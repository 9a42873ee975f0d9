"""One input rule: every library entry point reads its numbers, point ids and
scalar parameters through ``errors``, so a string, a bool, a NaN, a nesting of
the wrong depth, a scalar where an array belongs, a complex array, a scalar
out of its range and a fraction where a count belongs are each an InputError
naming the input, never a silent conversion, a TypeError or a ValueError."""
import copy

import numpy as np
import pytest

from curve_lab import (ForgeProblem, InputError, LipschitzSample, MetricSpace, ProbeFamily, SampledCurve, ac_p_test,
                       alternating_separated_witness, area_formula_check, banach_steinhaus_forge,
                       continuous_representative, diagonal_forge_problem, discontinuity_measure,
                       hausdorff1_content, lip_constant, luzin_n_probe, maximal_separated_net,
                       mcshane_extend_all, metric_speed, probe_family, sawtooth_witness, speed_via_probes,
                       triangle_wave, validate_metric, variation_preserving_witness)
from conftest import line_space

SPACE = line_space([0.0, 10.0, 20.0])
TIMES = [0.0, 0.5, 2.0]  # still increasing with True in place of 0.5
CURVE = SampledCurve(SPACE, TIMES, [0, 1, 2])
SAMPLE = LipschitzSample(SPACE, [0, 2], [0.0, 1.0], 1.0)
IDS = [0, 1, 2]
TABLE = [[0.0, 1.0], [1.0, 0.0]]


def malformed(good):
    """The six malformed forms of a list (of numbers or of rows): one leaf
    as a string, one as a bool, one as a NaN, every element one level
    deeper, the first leaf alone, and the whole as a complex array."""
    def with_leaf(value):
        bad = copy.deepcopy(good)
        row = bad if not isinstance(bad[1], list) else bad[1]
        row[0 if row is not bad else 1] = value
        return bad
    leaf = good[1] if not isinstance(good[1], list) else good[1][0]
    first = good[0] if not isinstance(good[0], list) else good[0][0]
    return {"string": with_leaf(str(leaf)), "bool": with_leaf(True), "nan": with_leaf(float("nan")),
            "nested": [[x] for x in good], "scalar": first, "complex": np.asarray(good, dtype=complex)}


# entry point and input: (call on the input, a well-formed input, the name the
# error gives, forms to replace or to drop because they are well-formed there)
ENTRY_POINTS = {
    "SampledCurve times": (lambda x: SampledCurve(SPACE, x, IDS), TIMES, "sample times", {}),
    "SampledCurve samples": (lambda x: SampledCurve(SPACE, TIMES, x), IDS, "point id", {}),
    "lip_constant points": (lambda x: lip_constant(x, [0.0, 1.0, 2.0], SPACE), IDS, "point id", {}),
    # One column per function is a well-formed 2-D values array.
    "lip_constant values": (lambda x: lip_constant(IDS, x, SPACE), [0.0, 1.0, 2.0], "values",
                            {"nested": [[[0.0]], [[1.0]], [[2.0]]]}),
    "LipschitzSample support": (lambda x: LipschitzSample(SPACE, x, [0.0, 1.0, 2.0], 1.0), IDS, "point id", {}),
    "LipschitzSample values": (lambda x: LipschitzSample(SPACE, IDS, x, 1.0), [0.0, 1.0, 2.0],
                               "sample values", {}),
    "LipschitzSample L": (lambda x: LipschitzSample(SPACE, IDS, [0.0, 1.0, 2.0], x), None, "Lipschitz sample L",
                          {"string": "1.0", "bool": True, "nan": float("nan"), "nested": [1.0], "scalar": None,
                           "complex": 1.0 + 0j}),
    "mcshane_extend_all queries": (lambda x: mcshane_extend_all(SAMPLE, x), IDS, "point id", {}),
    "hausdorff1_content target": (lambda x: hausdorff1_content(SPACE, x, 0.5), IDS, "point id", {}),
    "maximal_separated_net candidates": (lambda x: maximal_separated_net(SPACE, x, 0.5), IDS, "point id", {}),
    "area_formula_check values": (lambda x: area_formula_check(CURVE, x), [0.0, 1.0, 2.0],
                                  "area formula values", {}),
    "area_formula_check weights": (lambda x: area_formula_check(CURVE, [0.0, 1.0, 2.0], x), [1.0, 1.0, 1.0],
                                   "area formula weights", {}),
    "discontinuity_measure values": (lambda x: discontinuity_measure(x, 0.5, 0.2), [0.0] * 6,
                                     "trace values", {}),
    "continuous_representative values": (lambda x: continuous_representative(x, [0.5], 3), [0.0] * 6,
                                         "trace values", {}),
    "continuous_representative epsilon schedule": (lambda x: continuous_representative([0.0] * 6, x, 3),
                                                   [0.5, 0.25], "epsilon schedule", {}),
    "luzin_n_probe null set": (lambda x: luzin_n_probe(CURVE, x, 0.5), [[0.4, 0.6], [0.7, 0.9]],
                               "null set", {}),
    "alternating_separated_witness points": (lambda x: alternating_separated_witness(SPACE, x, [1.0] * 3),
                                             IDS, "point id", {}),
    "alternating_separated_witness radii": (lambda x: alternating_separated_witness(SPACE, IDS, x),
                                            [1.0, 1.0, 1.0], "radii", {}),
    # A scalar time and a regular nesting are well-formed waves; a ragged one is not.
    "triangle_wave t": (lambda x: triangle_wave(x, 0.25), [0.1, 0.2, 0.3], "triangle wave t",
                        {"nested": [0.1, [0.2]], "scalar": None}),
    "validate_metric": (validate_metric, TABLE, "distance table", {}),
    "MetricSpace distance table": (MetricSpace.from_matrix, TABLE, "distance table", {}),
    "MetricSpace coordinates": (MetricSpace.from_points, [[0.0], [1.0], [2.0]], "coordinates", {}),
}

CASES = [pytest.param(entry, form, id=f"{entry}-{form}")
         for entry, (_, good, _, forms) in ENTRY_POINTS.items()
         for form in ("string", "bool", "nan", "nested", "scalar", "complex")
         if forms.get(form, 0) is not None]


@pytest.mark.parametrize("entry, form", CASES)
def test_malformed_input_is_an_input_error_naming_it(entry, form):
    call, good, what, forms = ENTRY_POINTS[entry]
    if good is not None:
        call(good)  # the well-formed input passes
    bad = forms[form] if form in forms else malformed(good)[form]
    with pytest.raises(InputError, match=what):
        call(bad)


@pytest.mark.parametrize("entry, bad", [
    ("continuous_representative epsilon schedule", [0.5, None]),
    *[("luzin_n_probe null set", n) for n in ([(0.4,)], [0.4], [(0.4, 0.6, 0.7)])],
])
def test_holes_and_intervals_without_two_ends(entry, bad):
    call, _, what, _ = ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=what):
        call(bad)


def forge(depth):
    return banach_steinhaus_forge(diagonal_forge_problem(), depth)


def forge_with_horizon(horizon):
    # The horizon is an assignable slot, so the forge reads it again.
    problem = diagonal_forge_problem()
    problem.horizon = horizon
    return banach_steinhaus_forge(problem, 3)


INF = float("inf")
# scalar parameter: (call on a value, the name the error gives, values it
# takes, the first written as a string for the string form, and values it
# refuses besides a string, a bool and a NaN)
SCALARS = {
    "metric_speed t": (lambda x: metric_speed(CURVE, x, 0.5), "time", [0.5, 0.0, np.float64(0.5)],
                       [INF, -INF]),
    "metric_speed window": (lambda x: metric_speed(CURVE, 0.5, x), "window", [0.5, np.float64(1.5)],
                            [INF, 0.0, -1.0]),
    "speed_via_probes window": (lambda x: speed_via_probes(CURVE, probe_family(CURVE, 2), 0.5, x), "window",
                                [0.5], [INF, 0.0]),
    "hausdorff1_content delta": (lambda x: hausdorff1_content(SPACE, IDS, x), "delta", [0.5, INF, np.float64(0.1)],
                                 [-INF, 0.0, -1.0]),
    "maximal_separated_net epsilon": (lambda x: maximal_separated_net(SPACE, IDS, x), "epsilon", [0.5, INF],
                                      [-INF, 0.0, -1.0]),
    "probe_family n": (lambda x: probe_family(CURVE, x), "probe count", [2, 1, np.int64(3)],
                       [INF, 0, -1, 2.5]),
    "LipschitzSample L": (lambda x: LipschitzSample(SPACE, [0, 2], [0.0, 1.0], x), "Lipschitz sample L",
                          [1.0, 0.05, np.float32(1.0)], [INF, -INF, -1.0]),
    "MetricSpace.from_graph n": (lambda x: MetricSpace.from_graph(x, [[0, 1, 1.0]]), "graph node count",
                                 [2, np.int64(2)], [0, -1, 2.5, INF]),
    "triangle_wave tooth": (lambda x: triangle_wave([-0.1, 0.3], x), "tooth", [0.25, np.float64(0.5), 8e307],
                            [INF, -INF, 0.0, -1.0, 1e308]),
    "sawtooth_witness tooth": (lambda x: sawtooth_witness(CURVE, x), "tooth", [5.0, 20.0], [INF, 0.0, -1.0]),
    "variation_preserving_witness slack": (lambda x: variation_preserving_witness(CURVE, x), "slack",
                                           [2.0, np.float64(2.0)], [INF, 0.0, -1.0]),
    "ForgeProblem horizon": (lambda x: ForgeProblem(diagonal_forge_problem().functional, x), "horizon",
                             [10, 0, np.int64(0)], [-1, 2.5, INF, 10.0]),
    "banach_steinhaus_forge depth": (forge, "depth", [3, 1, np.int64(2)], [0, -1, 2.5, INF]),
    "banach_steinhaus_forge horizon": (forge_with_horizon, "horizon", [1000, np.int64(1000)],
                                       [-1, 2.5, INF, 10.0]),
    "discontinuity_measure epsilon": (lambda x: discontinuity_measure([0.0] * 6, x, 0.2), "epsilon",
                                      [0.5, np.float64(0.5)], [INF, 0.0, -1.0]),
    "discontinuity_measure delta": (lambda x: discontinuity_measure([0.0] * 6, 0.5, x), "delta",
                                    [0.2, np.float64(0.1)], [INF, 0.0, -1.0]),
    "continuous_representative window": (lambda x: continuous_representative([0.0] * 6, [0.5], x), "window",
                                         [3, np.int64(3), 5], [2, 0, 2.5, 3.0, INF]),
    "ac_p_test p": (lambda x: ac_p_test(CURVE, x), "p", [2.0, 1.0, INF, 1], [0.5, -INF]),
    "ac_p_test refinements": (lambda x: ac_p_test(CURVE, 2.0, lambda c: c, x), "refinements",
                              [1, 0, np.int64(2)], [2.5, INF]),
    "luzin_n_probe delta": (lambda x: luzin_n_probe(CURVE, [[0.4, 0.6]], x), "delta", [0.5, np.float64(0.1)],
                            [INF, 0.0, -1.0]),
}

SCALAR_CASES = [pytest.param(entry, bad, id=f"{entry}-{bad!r}")
                for entry, (_, _, good, refused) in SCALARS.items()
                for bad in [str(good[0]), True, False, float("nan"), *refused]]


@pytest.mark.parametrize("entry, bad", SCALAR_CASES)
def test_malformed_scalar_is_an_input_error_naming_it(entry, bad):
    call, what, good, _ = SCALARS[entry]
    for value in good:
        call(value)  # each value in range passes
    with pytest.raises(InputError, match=f"^{what} "):
        call(bad)



@pytest.mark.parametrize("centers, message", [
    ((-1, 1), "point id -1 out of range [0, 3)"),
    ((50,), "point id 50 out of range [0, 3)"),
    (("a",), "point id 'a' is not an integer"),
    ((1.5,), "point id 1.5 is not an integer"),
    ((True,), "point id True is not an integer"),
    ((), "probe family has no centers"),
])
def test_probe_centers_are_point_ids_of_the_space(centers, message):
    # A hand-built family is read like any point ids: -1 names no point,
    # rather than the last one.
    assert speed_via_probes(CURVE, ProbeFamily(SPACE, (0, 2)), 0.5, 0.5) == 20.0
    with pytest.raises(InputError) as info:
        speed_via_probes(CURVE, ProbeFamily(SPACE, centers), 0.5, 0.5)
    assert str(info.value) == message
