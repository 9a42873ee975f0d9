"""Batch command-line front end.

Exit status contract: 0 when every requested check passes, 1 when a check
fails (or a recovery/forge run comes up empty), 2 on input errors or unknown
commands.  Artifacts are written atomically and contain no timestamps, so
re-running an identical config reproduces them byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from typing import Optional

import numpy as np

from .curves import (SampledCurve, arc_length_reparam, hausdorff1_content,
                     load_curve_csv, metric_speed, stats_json, total_variation)
from .errors import HorizonError, InputError
from .lipschitz import LipschitzSample, mcshane_extend_all, probe_family, speed_via_probes
from .metric import MetricSpace, validate_metric
from .verify import (CheckReport, ac_p_test, area_formula_check, check_contraction,
                     continuous_representative, discontinuity_measure, luzin_n_probe,
                     variation_integral_check)
from .witnesses import (alternating_separated_witness, banach_steinhaus_forge,
                        diagonal_forge_problem, sawtooth_witness,
                        variation_preserving_witness, ForgeProblem)


# -- I/O helpers ----------------------------------------------------------------


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".curve-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Optional[str], obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _load_space(path: Optional[str]) -> Optional[MetricSpace]:
    if path is None:
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read space file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"space file {path} is not valid JSON: {exc}") from exc
    return MetricSpace.from_json(doc)


def _load_curve(curve_path: str, space_path: Optional[str]) -> SampledCurve:
    space = _load_space(space_path)
    try:
        with open(curve_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read curve file {curve_path}: {exc}") from exc
    return load_curve_csv(text, space)


def _load_values(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read values file {path}: {exc}") from exc
    text = text.strip()
    try:
        if text.startswith("["):
            values = np.asarray(json.loads(text), dtype=float)
        else:
            values = np.asarray([float(line) for line in text.splitlines() if line.strip()])
    except (ValueError, TypeError) as exc:
        raise InputError(f"values file {path} must be a JSON array or one float per line") from exc
    if not np.all(np.isfinite(values)):
        raise InputError(f"values file {path} contains non-finite entries")
    return values


def _load_sample(path: str, space: MetricSpace) -> LipschitzSample:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read sample file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"sample file {path} is not valid JSON: {exc}") from exc
    return LipschitzSample.from_json(doc, space)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"expected comma-separated floats, got {text!r}") from exc


def _tolerance_override(report: CheckReport) -> CheckReport:
    raw = os.environ.get("CURVE_LAB_TOLERANCE")
    if raw is None:
        return report
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InputError(f"CURVE_LAB_TOLERANCE must be a float, got {raw!r}") from exc
    return replace(report, tolerance=tol, verdict=report.residual <= tol)


def _emit_report(report: CheckReport, out: Optional[str]) -> int:
    report = _tolerance_override(report)
    _write_json(out, report.to_json())
    return 0 if report.verdict else 1


# -- subcommand handlers ----------------------------------------------------------


def _cmd_validate_metric(args) -> int:
    try:
        with open(args.space) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read space file {args.space}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"space file {args.space} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and doc.get("kind") in ("euclidean", "graph"):
        space = MetricSpace.from_json(doc)
        matrix = space.submatrix(range(space.n))
    elif isinstance(doc, dict):
        if "data" not in doc:
            raise InputError(f"space file {args.space} has no 'data' key")
        matrix = doc["data"]
    else:
        matrix = doc
    report = validate_metric(matrix)
    payload = {
        "passed": report.passed,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in report.violations
        ],
    }
    _write_json(args.out, payload)
    return 0 if report.passed else 1


def _cmd_variation(args) -> int:
    curve = _load_curve(args.curve, args.space)
    if args.out:
        _write_json(args.out, stats_json(curve))
    else:
        sys.stdout.write(f"{total_variation(curve)}\n")
    return 0


def _cmd_speed(args) -> int:
    curve = _load_curve(args.curve, args.space)
    value = metric_speed(curve, args.t, args.window, side=args.side)
    if args.out:
        _write_json(args.out, {"t": args.t, "window": args.window,
                               "side": args.side, "speed": value})
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _cmd_reparam(args) -> int:
    curve = _load_curve(args.curve, args.space)
    rep = arc_length_reparam(curve)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "point_id"])
    for t, p in zip(rep.times, rep.samples):
        writer.writerow([repr(float(t)), int(p)])
    _atomic_write(args.out, buf.getvalue())
    return 0


def _cmd_content(args) -> int:
    curve = _load_curve(args.curve, args.space)
    value = hausdorff1_content(curve.space, curve.samples, args.delta)
    if args.out:
        _write_json(args.out, {"delta": args.delta, "content": value})
    else:
        sys.stdout.write(f"{value}\n")
    return 0


def _cmd_extend(args) -> int:
    space = _load_space(args.space)
    if space is None:
        raise InputError("extend requires --space")
    sample = _load_sample(args.h, space)
    queries = _int_list(args.queries) if args.queries else list(range(space.n))
    values = mcshane_extend_all(sample, queries, envelope=args.envelope)
    _write_json(args.out, {
        "envelope": args.envelope,
        "queries": [int(q) for q in queries],
        "values": [float(v) for v in values],
        "L": sample.L,
    })
    return 0


def _cmd_probes(args) -> int:
    curve = _load_curve(args.curve, args.space)
    family = probe_family(curve, args.n)
    payload = {"centers": [int(c) for c in family.centers]}
    if args.t is not None:
        payload["speed"] = speed_via_probes(curve, family, args.t, args.window,
                                            side=args.side)
    _write_json(args.out, payload)
    return 0


def _cmd_sawtooth(args) -> int:
    curve = _load_curve(args.curve, args.space)
    witness = sawtooth_witness(curve, args.tooth)
    _write_json(args.out, witness.to_json())
    return 0


def _cmd_altwitness(args) -> int:
    space = _load_space(args.space)
    if space is None:
        raise InputError("altwitness requires --space")
    points = _int_list(args.points)
    radii = _float_list(args.radii)
    witness = alternating_separated_witness(space, points, radii)
    _write_json(args.out, witness.to_json())
    return 0


def _cmd_forge(args) -> int:
    problem = diagonal_forge_problem()
    if args.horizon is not None:
        problem = ForgeProblem(functional=problem.functional, horizon=args.horizon)
    result = banach_steinhaus_forge(problem, args.depth)
    _write_json(args.out, {
        "alphas": list(result.alphas),
        "indices": list(result.indices),
        "level_bounds": list(result.level_bounds),
        "selection_slacks": [dict(s) for s in result.selection_slacks],
    })
    return 0


def _cmd_check(args) -> int:
    kind = args.kind
    if kind == "contraction":
        curve = _load_curve(args.curve, args.space)
        sample = _load_sample(args.h, curve.space)
        return _emit_report(check_contraction(curve, sample), args.out)
    if kind == "area":
        curve = _load_curve(args.curve, args.space)
        if args.values:
            values = _load_values(args.values)
        elif args.h:
            sample = _load_sample(args.h, curve.space)
            values = mcshane_extend_all(sample, curve.samples)
        else:
            raise InputError("check area requires --values or --h")
        weights = _load_values(args.weights) if args.weights else None
        return _emit_report(area_formula_check(curve, values, weights), args.out)
    if kind == "varint":
        curve = _load_curve(args.curve, args.space)
        return _emit_report(variation_integral_check(curve), args.out)
    if kind == "disc":
        values = _load_values(args.values)
        profile = discontinuity_measure(values, args.epsilon, args.delta)
        report = CheckReport(
            name="discontinuity", lhs=profile.measure, rhs=0.0,
            residual=profile.measure, tolerance=float(args.measure_tolerance),
            verdict=profile.measure <= args.measure_tolerance,
            context={"epsilon": profile.epsilon, "delta": profile.delta,
                     "pair_count": profile.pair_count},
        )
        return _emit_report(report, args.out)
    if kind == "acp":
        curve = _load_curve(args.curve, args.space)
        result = ac_p_test(curve, args.p, refinements=0)
        _write_json(args.out, {"p": result.p, "norm_estimate": result.norm_estimate,
                               "refinement_trend": list(result.refinement_trend),
                               "verdict": result.verdict})
        return 0 if result.verdict != "AC_p-inconsistent" else 1
    if kind == "luzin":
        curve = _load_curve(args.curve, args.space)
        intervals = []
        for tok in args.null_set.split(","):
            a, _, b = tok.partition(":")
            try:
                intervals.append((float(a), float(b)))
            except ValueError as exc:
                raise InputError(f"null-set interval {tok!r} must be a:b") from exc
        return _emit_report(luzin_n_probe(curve, intervals, args.delta), args.out)
    raise InputError(f"unknown check kind {kind!r}")


def _cmd_recover(args) -> int:
    values = _load_values(args.values)
    schedule = _float_list(args.epsilons)
    result = continuous_representative(values, schedule, window=args.window)
    if result is None:
        _write_json(args.out, {"found": False})
        return 1
    cleaned, fraction = result
    _write_json(args.out, {"found": True, "modified_fraction": fraction,
                           "values": [float(v) for v in cleaned]})
    return 0


def _digest(config) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _cmd_report(args) -> int:
    try:
        with open(args.bundle) as fh:
            configs = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read bundle file {args.bundle}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"bundle file {args.bundle} is not valid JSON: {exc}") from exc
    if not isinstance(configs, list):
        raise InputError("bundle must be a JSON list of {'argv': [...]} configs")

    rows = []
    worst = 0
    parser = _build_parser()
    for config in configs:
        argv = config.get("argv") if isinstance(config, dict) else None
        if not isinstance(argv, list):
            raise InputError(f"bundle entry {config!r} lacks an 'argv' list")
        out_path = tempfile.mktemp(prefix="curve-lab-sub-", suffix=".json")
        try:
            code = _run(parser, [str(a) for a in argv] + ["--out", out_path])
            payload = None
            if os.path.exists(out_path):
                with open(out_path) as fh:
                    payload = json.load(fh)
        except (InputError, SystemExit) as exc:
            sys.stderr.write(f"error: {exc}\n")
            rows.append({"name": " ".join(str(a) for a in argv),
                         "digest": _digest(config), "verdict": "error",
                         "residual": "", "tolerance": ""})
            worst = 2
            continue
        except HorizonError as exc:
            sys.stderr.write(f"error: {exc}\n")
            rows.append({"name": " ".join(str(a) for a in argv),
                         "digest": _digest(config), "verdict": "fail",
                         "residual": "", "tolerance": ""})
            worst = max(worst, 1)
            continue
        finally:
            if os.path.exists(out_path):
                os.unlink(out_path)
        name = (payload or {}).get("name", " ".join(str(a) for a in argv))
        verdict = (payload or {}).get("verdict", "pass" if code == 0 else "fail")
        rows.append({
            "name": name, "digest": _digest(config), "verdict": verdict,
            "residual": (payload or {}).get("residual", ""),
            "tolerance": (payload or {}).get("tolerance", ""),
        })
        if code != 0:
            worst = max(worst, code)

    def order(row):
        rank = {"fail": 0, "error": 0}.get(row["verdict"], 1)
        return (rank, str(row["name"]), row["digest"])

    rows.sort(key=order)
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    _atomic_write(args.out_prefix + ".jsonl", lines)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["name", "digest", "verdict",
                                             "residual", "tolerance"])
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(args.out_prefix + ".csv", buf.getvalue())
    return worst


# -- parser -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curve-lab",
                                     description="metric-curve constructions and checks")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for any randomized operation (default 0)")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = add("validate-metric", _cmd_validate_metric)
    p.add_argument("--space", required=True)

    for name, func in (("variation", _cmd_variation),):
        p = add(name, func)
        p.add_argument("--curve", required=True)
        p.add_argument("--space", default=None)

    p = add("speed", _cmd_speed)
    p.add_argument("--curve", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--side", choices=["both", "left", "right"], default="both")

    p = add("reparam", _cmd_reparam)
    p.add_argument("--curve", required=True)
    p.add_argument("--space", default=None)

    p = add("content", _cmd_content)
    p.add_argument("--curve", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--delta", type=float, required=True)

    p = add("extend", _cmd_extend)
    p.add_argument("--space", required=True)
    p.add_argument("--h", required=True, help="Lipschitz sample JSON")
    p.add_argument("--queries", default=None, help="comma-separated point ids")
    p.add_argument("--envelope", choices=["upper", "lower", "average"], default="upper")

    p = add("probes", _cmd_probes)
    p.add_argument("--curve", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--side", choices=["both", "left", "right"], default="both")

    p = add("sawtooth", _cmd_sawtooth)
    p.add_argument("--curve", required=True)
    p.add_argument("--space", default=None)
    p.add_argument("--tooth", type=float, required=True)

    p = add("altwitness", _cmd_altwitness)
    p.add_argument("--space", required=True)
    p.add_argument("--points", required=True, help="comma-separated point ids in order")
    p.add_argument("--radii", required=True, help="comma-separated radii")

    p = add("forge", _cmd_forge)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)

    p = add("check", _cmd_check)
    p.add_argument("kind", choices=["contraction", "area", "varint", "disc",
                                    "acp", "luzin"])
    p.add_argument("--curve", default=None)
    p.add_argument("--space", default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--values", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--null-set", dest="null_set", default=None,
                   help="comma-separated a:b time intervals")
    p.add_argument("--measure-tolerance", type=float, default=0.0)

    p = add("recover", _cmd_recover)
    p.add_argument("--values", required=True)
    p.add_argument("--epsilons", required=True, help="decreasing comma-separated schedule")
    p.add_argument("--window", type=int, default=5)

    p = sub.add_parser("report")
    p.set_defaults(func=_cmd_report)
    p.add_argument("--bundle", required=True, help="JSON list of {'argv': [...]}")
    p.add_argument("--out-prefix", required=True)

    return parser


_CHECK_REQUIRED = {
    "contraction": ["curve", "h"],
    "area": ["curve"],
    "varint": ["curve"],
    "disc": ["values", "epsilon", "delta"],
    "acp": ["curve", "p"],
    "luzin": ["curve", "null_set", "delta"],
}


def _run(parser: argparse.ArgumentParser, argv) -> int:
    # argparse exits 2 on usage errors and 0 on --help via SystemExit.
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "check":
        missing = [f"--{k.replace('_', '-')}" for k in _CHECK_REQUIRED[args.kind]
                   if getattr(args, k) is None]
        if missing:
            raise InputError(f"check {args.kind} requires {', '.join(missing)}")
    return args.func(args)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        return _run(parser, argv)
    except HorizonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
