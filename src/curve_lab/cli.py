"""Batch command-line front end.

Exit status contract: 0 when every requested check passes, 1 when a check
fails (or a recovery/forge run comes up empty), 2 on input errors, unknown
commands and usage errors.  Every handler returns ``(payload, exit_code)``;
the payload is a JSON-able dict or a string written verbatim, and ``main``
writes it once, atomically to ``--out`` or else to stdout.  Artifacts contain
no timestamps, so re-running an identical config reproduces them byte for
byte.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .errors import HorizonError, InputError, _float_array

# Each loader and handler imports the library names it calls, so a command
# loads only the modules it uses: validate-metric needs metric alone.


# -- I/O helpers ----------------------------------------------------------------


def _strict(x):
    """x with each non-finite float as the string "inf", "-inf" or "nan": strict JSON has no such number."""
    if isinstance(x, (dict, list, tuple)):
        return {k: _strict(v) for k, v in x.items()} if isinstance(x, dict) else [_strict(v) for v in x]
    return repr(float(x)) if isinstance(x, float) and not math.isfinite(x) else x


def _emit(payload, path: Optional[str]) -> None:
    """Write a payload (dict as sorted strict JSON, str verbatim) to stdout, or
    to ``path`` through a temporary file in the same directory and a rename."""
    text = payload if isinstance(payload, str) else json.dumps(_strict(payload), indent=2, sort_keys=True,
                                                               allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".curve-lab-{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _load_space(path: Optional[str]):
    from .metric import MetricSpace
    return None if path is None else MetricSpace.from_json(_read_json(path, "space"))


def _load_curve(curve_path: str, space_path: Optional[str]):
    from .curves import load_curve_csv
    space = _load_space(space_path)
    return load_curve_csv(_read_text(curve_path, "curve"), space)


def _load_values(path: str) -> np.ndarray:
    text = _read_text(path, "values").strip()
    try:
        values = (json.loads(text) if text.startswith("[")
                  else [float(line) for line in text.splitlines() if line.strip()])
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"values file {path} must be a JSON array or one float per line") from exc
    return _float_array(values, f"values file {path}", ndim=1)


def _load_sample(path: str, space):
    from .lipschitz import LipschitzSample
    return LipschitzSample.from_json(_read_json(path, "sample"), space)


def _list(text: str, kind) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        what = "integers" if kind is int else "floats"
        raise InputError(f"expected comma-separated {what}, got {text!r}") from exc


def _verdict(report) -> tuple[dict, int]:
    """A check's payload and exit code, with the ``CURVE_LAB_TOLERANCE``
    override applied to its tolerance and verdict."""
    raw = os.environ.get("CURVE_LAB_TOLERANCE")
    if raw is not None:
        try:
            tol = float(raw)
        except ValueError as exc:
            raise InputError(f"CURVE_LAB_TOLERANCE must be a float, got {raw!r}") from exc
        if not 0 <= tol < np.inf:
            raise InputError(f"CURVE_LAB_TOLERANCE must be finite and non-negative, got {raw!r}")
        report = report._replace(tolerance=tol, verdict=report.residual <= tol)
    return report.to_json(), 0 if report.verdict else 1


# -- subcommand handlers: each returns (payload, exit_code) ---------------------------


def _by_construction(space) -> bool:
    """Whether a loaded ``euclidean`` space is a metric without a triangle
    scan.  The loader has checked finite coordinates without duplicates, so
    Euclidean distances are a metric unless rounding breaks them: a squared
    difference that under- or overflows can put distinct points at distance
    0 or inf, or skew a triangle by more than the slack.  Distances whose
    squares are normal floats rule that out: under a finite box extent none
    overflows, and every point joins the greedy net at the root of the
    smallest normal iff no two lie closer than that."""
    from .metric import maximal_separated_net
    smallest = np.sqrt(np.finfo(float).tiny)
    return bool(np.isfinite(space._extent)
                and len(maximal_separated_net(space, range(space.n), smallest).members) == space.n)


def _cmd_validate_metric(args):
    from .metric import MetricSpace, graph_edges, space_document, validate_metric
    doc = _read_json(args.space, "space")
    kind, matrix, n = space_document(doc)
    if kind == "graph":
        # Shortest paths on a connected positive graph are a metric; each is a left fold
        # over a simple path, so none overflows below half the largest float.  Above
        # that the table is built, and one that overflows exits 2.
        try:
            small = math.fsum(graph_edges(n, matrix).values()) < sys.float_info.max / 2
        except OverflowError:
            small = False
        if not small:
            MetricSpace.from_json(doc)
        return {"passed": True, "violations": []}, 0
    if kind != "matrix":
        space = MetricSpace.from_json(doc)
        # An overflowing distance is reported below as a non-finite entry.
        with np.errstate(over="ignore"):
            if _by_construction(space):
                return {"passed": True, "violations": []}, 0
            matrix = space.dist_block(range(space.n), range(space.n))
    report = validate_metric(matrix)
    payload = {
        "passed": report.passed,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "detail": v.detail}
            for v in report.violations
        ],
    }
    return payload, 0 if report.passed else 1


def _cmd_variation(args):
    from .curves import stats_json, total_variation
    curve = _load_curve(args.curve, args.space)
    return (stats_json(curve) if args.out else f"{total_variation(curve)}\n"), 0


def _cmd_speed(args):
    from .curves import metric_speed
    curve = _load_curve(args.curve, args.space)
    value = metric_speed(curve, args.t, args.window, side=args.side)
    if args.out:
        return {"t": args.t, "window": args.window, "side": args.side, "speed": value}, 0
    return f"{value}\n", 0


def _cmd_reparam(args):
    from .curves import arc_length_reparam
    rep = arc_length_reparam(_load_curve(args.curve, args.space))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "point_id"])
    for t, p in zip(rep.times, rep.samples):
        writer.writerow([repr(float(t)), int(p)])
    return buf.getvalue(), 0


def _cmd_content(args):
    from .curves import hausdorff1_content
    curve = _load_curve(args.curve, args.space)
    value = hausdorff1_content(curve.space, curve.samples, args.delta)
    return ({"delta": args.delta, "content": value} if args.out else f"{value}\n"), 0


def _cmd_extend(args):
    from .lipschitz import mcshane_extend_all
    space = _load_space(args.space)
    sample = _load_sample(args.h, space)
    queries = _list(args.queries, int) if args.queries else list(range(space.n))
    values = mcshane_extend_all(sample, queries, envelope=args.envelope)
    return {
        "envelope": args.envelope,
        "queries": [int(q) for q in queries],
        "values": [float(v) for v in values],
        "L": sample.L,
    }, 0


def _cmd_probes(args):
    from .lipschitz import probe_family, speed_via_probes
    if (args.t is None) != (args.window is None):
        raise InputError("probes --t needs --window" if args.window is None else "probes --window needs --t")
    curve = _load_curve(args.curve, args.space)
    family = probe_family(curve, args.n)
    payload = {"centers": [int(c) for c in family.centers]}
    if args.t is not None:
        payload["speed"] = speed_via_probes(curve, family, args.t, args.window,
                                            side=args.side)
    return payload, 0


def _cmd_sawtooth(args):
    from .witnesses import sawtooth_witness
    curve = _load_curve(args.curve, args.space)
    return sawtooth_witness(curve, args.tooth).to_json(), 0


def _cmd_altwitness(args):
    from .witnesses import alternating_separated_witness
    space = _load_space(args.space)
    witness = alternating_separated_witness(space, _list(args.points, int),
                                            _list(args.radii, float))
    return witness.to_json(), 0


def _cmd_forge(args):
    from .witnesses import ForgeProblem, banach_steinhaus_forge, diagonal_forge_problem
    problem = diagonal_forge_problem()
    if args.horizon is not None:
        problem = ForgeProblem(functional=problem.functional, horizon=args.horizon)
    result = banach_steinhaus_forge(problem, args.depth)
    return {
        "alphas": list(result.alphas),
        "indices": list(result.indices),
        "level_bounds": list(result.level_bounds),
        "selection_slacks": [dict(s) for s in result.selection_slacks],
    }, 0


def _cmd_check_contraction(args):
    from .verify import check_contraction
    curve = _load_curve(args.curve, args.space)
    return _verdict(check_contraction(curve, _load_sample(args.h, curve.space)))


def _cmd_check_area(args):
    from .lipschitz import mcshane_extend_all
    from .verify import area_formula_check
    curve = _load_curve(args.curve, args.space)
    if args.values:
        values = _load_values(args.values)
    else:
        values = mcshane_extend_all(_load_sample(args.h, curve.space), curve.samples)
    weights = _load_values(args.weights) if args.weights else None
    return _verdict(area_formula_check(curve, values, weights))


def _cmd_check_varint(args):
    from .verify import variation_integral_check
    return _verdict(variation_integral_check(_load_curve(args.curve, args.space)))


def _cmd_check_disc(args):
    from .verify import _report, discontinuity_measure
    if not 0 <= args.measure_tolerance < np.inf:
        raise InputError(f"--measure-tolerance must be finite and non-negative, got {args.measure_tolerance}")
    profile = discontinuity_measure(_load_values(args.values), args.epsilon, args.delta)
    return _verdict(_report(
        "discontinuity", profile.measure, 0.0, args.measure_tolerance, one_sided=True,
        context={"epsilon": profile.epsilon, "delta": profile.delta,
                 "pair_count": profile.pair_count}))


def _cmd_check_acp(args):
    from .verify import ac_p_test
    result = ac_p_test(_load_curve(args.curve, args.space), args.p)
    return {"p": result.p, "norm_estimate": result.norm_estimate,
            "refinement_trend": list(result.refinement_trend),
            "verdict": result.verdict}, 0 if result.verdict != "AC_p-inconsistent" else 1


def _cmd_check_luzin(args):
    from .verify import luzin_n_probe
    curve = _load_curve(args.curve, args.space)
    intervals = []
    for tok in args.null_set.split(","):
        a, _, b = tok.partition(":")
        try:
            intervals.append((float(a), float(b)))
        except ValueError as exc:
            raise InputError(f"null-set interval {tok!r} must be a:b") from exc
    return _verdict(luzin_n_probe(curve, intervals, args.delta))


def _cmd_recover(args):
    from .verify import continuous_representative
    values = _load_values(args.values)
    result = continuous_representative(values, _list(args.epsilons, float), window=args.window)
    if result is None:
        return {"found": False}, 1
    cleaned, fraction = result
    return {"found": True, "modified_fraction": fraction,
            "values": [float(v) for v in cleaned]}, 0


def _digest(config) -> str:
    import hashlib
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _cmd_report(args):
    """Run each bundle entry's handler in-process; the payload is the
    ``.jsonl`` and ``.csv`` summaries keyed by file suffix."""
    import contextlib
    configs = _read_json(args.bundle, "bundle")
    if not isinstance(configs, list):
        raise InputError("bundle must be a JSON list of {'argv': [...]} configs")

    rows = []
    worst = 0
    parser = _build_parser()
    for config in configs:
        argv = config.get("argv") if isinstance(config, dict) else None
        if not isinstance(argv, list):
            raise InputError(f"bundle entry {config!r} lacks an 'argv' list")
        argv = [str(a) for a in argv]
        row = {"name": " ".join(argv), "digest": _digest(config), "verdict": "",
               "residual": "", "tolerance": ""}
        try:
            # A help request is the one way parsing exits; its text is not a result.
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    sub = parser.parse_args(argv)
            except SystemExit:
                raise InputError(f"bundle entry {row['name']!r} asks for help") from None
            if sub.func is _cmd_report:
                raise InputError("a bundle entry cannot run report")
            payload, code = _run(sub)
        except (InputError, HorizonError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            # The .jsonl row carries the error too; the .csv columns stay fixed.
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["verdict"], code = ("fail", 1) if isinstance(exc, HorizonError) else ("error", 2)
        else:
            row["verdict"] = "pass" if code == 0 else "fail"
            if isinstance(payload, dict):
                row.update((k, payload[k]) for k in ("name", "verdict", "residual", "tolerance")
                           if k in payload)
        rows.append(row)
        worst = max(worst, code)

    def order(row):
        rank = {"fail": 0, "error": 0}.get(row["verdict"], 1)
        return (rank, str(row["name"]), row["digest"])

    rows.sort(key=order)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["name", "digest", "verdict", "residual", "tolerance"],
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return {".jsonl": "".join(json.dumps(_strict(r), sort_keys=True, allow_nan=False) + "\n" for r in rows),
            ".csv": buf.getvalue()}, worst


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they end in one ``error:`` line and
    exit 2 from ``main``, and in an ``error`` row inside ``report``."""

    # Flags whose value may start with '-', such as the interval -0.5:0.5;
    # argparse would read a separate value of that form as an unknown option.
    DASHED_VALUES = ("--null-set",)

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        glued = []
        for arg in args:
            if glued and glued[-1] in self.DASHED_VALUES and not arg.startswith("--"):
                glued[-1] += f"={arg}"
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The full parser, or given ``argv`` only the branch it names: its
    command and, under ``check``, its kind.  An argv that names no known
    command or kind (a typo, top-level ``--help``, nothing) gets the full
    parser, so usage errors and help text do not depend on the branch."""
    parser = _Parser(prog="curve-lab", description="metric-curve constructions and checks")
    commands = parser.add_subparsers(dest="command", required=True)
    built = []

    def add(group, name, func=None, curve=False, out=True):
        level = 0 if group is commands else 1
        if argv is not None and argv[level:level + 1] != [name]:
            return None
        built.append(name)
        p = group.add_parser(name)
        if func is not None:
            p.set_defaults(func=func)
        if out:
            p.add_argument("--out", default=None, help="output path (default: stdout)")
        if curve:
            p.add_argument("--curve", required=True)
            p.add_argument("--space", default=None)
        return p

    if p := add(commands, "validate-metric", _cmd_validate_metric):
        p.add_argument("--space", required=True)

    add(commands, "variation", _cmd_variation, curve=True)

    if p := add(commands, "speed", _cmd_speed, curve=True):
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--window", type=float, required=True)
        p.add_argument("--side", choices=["both", "left", "right"], default="both")

    add(commands, "reparam", _cmd_reparam, curve=True)

    if p := add(commands, "content", _cmd_content, curve=True):
        p.add_argument("--delta", type=float, required=True)

    if p := add(commands, "extend", _cmd_extend):
        p.add_argument("--space", required=True)
        p.add_argument("--h", required=True, help="Lipschitz sample JSON")
        p.add_argument("--queries", default=None, help="comma-separated point ids")
        p.add_argument("--envelope", choices=["upper", "lower", "average"], default="upper")

    if p := add(commands, "probes", _cmd_probes, curve=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--window", type=float, default=None)
        p.add_argument("--side", choices=["both", "left", "right"], default="both")

    if p := add(commands, "sawtooth", _cmd_sawtooth, curve=True):
        p.add_argument("--tooth", type=float, required=True)

    if p := add(commands, "altwitness", _cmd_altwitness):
        p.add_argument("--space", required=True)
        p.add_argument("--points", required=True, help="comma-separated point ids in order")
        p.add_argument("--radii", required=True, help="comma-separated radii")

    if p := add(commands, "forge", _cmd_forge):
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--horizon", type=int, default=None)

    if check := add(commands, "check", out=False):
        kinds = check.add_subparsers(dest="kind", required=True)
        if p := add(kinds, "contraction", _cmd_check_contraction, curve=True):
            p.add_argument("--h", required=True, help="Lipschitz sample JSON")
        if p := add(kinds, "area", _cmd_check_area, curve=True):
            heights = p.add_mutually_exclusive_group(required=True)
            heights.add_argument("--values", help="heights along the curve")
            heights.add_argument("--h", help="Lipschitz sample JSON, extended along the curve")
            p.add_argument("--weights", default=None)
        add(kinds, "varint", _cmd_check_varint, curve=True)
        if p := add(kinds, "disc", _cmd_check_disc):
            p.add_argument("--values", required=True)
            p.add_argument("--epsilon", type=float, required=True)
            p.add_argument("--delta", type=float, required=True)
            p.add_argument("--measure-tolerance", type=float, default=0.0)
        if p := add(kinds, "acp", _cmd_check_acp, curve=True):
            p.add_argument("--p", type=float, required=True)
        if p := add(kinds, "luzin", _cmd_check_luzin, curve=True):
            p.add_argument("--null-set", dest="null_set", required=True,
                           help="comma-separated a:b time intervals")
            p.add_argument("--delta", type=float, required=True)

    if p := add(commands, "recover", _cmd_recover):
        p.add_argument("--values", required=True)
        p.add_argument("--epsilons", required=True, help="decreasing comma-separated schedule")
        p.add_argument("--window", type=int, default=5)

    if p := add(commands, "report", _cmd_report, out=False):
        p.add_argument("--bundle", required=True, help="JSON list of {'argv': [...]}")
        p.add_argument("--out-prefix", required=True)

    # Nothing built, or check without a kind: argv named no known branch.
    if built in ([], ["check"]):
        return _build_parser()
    return parser


def _run(args) -> tuple:
    """Call the parsed command's handler.  Finite input whose arithmetic
    overflows is an input error, not an inf in the output.  A warning is one
    ``warning:`` line on stderr."""
    try:
        with np.errstate(over="raise"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
            return args.func(args)
    except FloatingPointError as exc:
        raise InputError(f"input out of floating-point range: {exc}") from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
        payload, code = _run(args)
        if args.func is _cmd_report:
            for suffix, text in payload.items():
                _emit(text, args.out_prefix + suffix)
        else:
            _emit(payload, args.out)
        return code
    except HorizonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
