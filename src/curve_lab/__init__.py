"""curve-lab: metric-space curves, Lipschitz witnesses, and structural checks.

The public names below load on first access (PEP 562), so ``import
curve_lab`` imports no submodule and each name costs only its home module.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(["CurveLabError", "DegenerateInputError", "HorizonError",
                     "InconsistentDataError", "InputError", "ScheduleError"], "errors"),
    **dict.fromkeys(["MetricSpace", "SeparatedNet", "ValidationReport", "Violation",
                     "maximal_separated_net", "validate_metric"], "metric"),
    **dict.fromkeys(["SampledCurve", "arc_length_reparam", "chord_arc_profile",
                     "hausdorff1_content", "load_curve_csv", "metric_speed", "stats_json",
                     "total_variation"], "curves"),
    **dict.fromkeys(["LipschitzSample", "ProbeFamily", "lip_constant", "mcshane_extend_all",
                     "probe_family", "speed_via_probes"], "lipschitz"),
    **dict.fromkeys(["ForgeProblem", "ForgeResult", "WitnessFunction",
                     "alternating_separated_witness", "banach_steinhaus_forge",
                     "diagonal_forge_problem", "sawtooth_witness", "triangle_wave",
                     "variation_preserving_witness"], "witnesses"),
    **dict.fromkeys(["ACPReport", "CheckReport", "DiscontinuityProfile", "ac_p_test",
                     "area_formula_check", "check_contraction", "continuous_representative",
                     "discontinuity_measure", "luzin_n_probe", "variation_integral_check"],
                    "verify"),
}

__all__ = list(_HOME)


def __getattr__(name):
    # Not cached here: the home module's attribute is the one answer, also
    # after something rebinds it there.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
