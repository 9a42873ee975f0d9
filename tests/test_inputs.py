"""One input rule: every library entry point reads its numbers and point ids
through ``errors``, so a string, a bool, a NaN, a nesting of the wrong depth,
a scalar where an array belongs and a complex array are each an InputError
naming the input, never a silent conversion, a TypeError or a ValueError."""
import copy

import numpy as np
import pytest

from curve_lab import (InputError, LipschitzSample, MetricSpace, SampledCurve,
                       alternating_separated_witness, area_formula_check,
                       continuous_representative, discontinuity_measure,
                       hausdorff1_content, lip_constant, luzin_n_probe, maximal_separated_net,
                       mcshane_extend_all, triangle_wave, validate_metric)
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
