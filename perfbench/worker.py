"""Worker process for one perfbench run.

Started by ``run.py`` with ``PYTHONPATH=src``.  It imports curve_lab, reads
the generated inputs and prints ``ready``; the harness times set-up up to
that line.  In ``setup`` mode it then exits.  In ``run`` mode it runs ops in
a closed loop for the given seconds and writes latencies, CPU times, the
host-speed reference time taken before each op and check failures to
``--result``.  In ``trace`` mode it runs the first third
of that time untraced and the rest with the span tracer installed.

Only curve_lab, numpy and the standard library are imported before
``ready``; the output checks import their helpers afterwards.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import curve_lab as cl
import gen
from gen import DELTA, EPSILONS, NULL_SET, TOOTH

RTOL = 1e-9

# Host-speed reference, timed just before every op: one fixed numpy
# pairwise-distance pass (700 points, 4 MB temporaries), independent of
# curve_lab.  run.py scales the op's times by REF_KERNEL_S over it.
REF_KERNEL_S = 0.02
_REF_POINTS = np.random.default_rng(0).random((700, 2))


def reference() -> float:
    p = _REF_POINTS
    t0 = time.perf_counter()
    np.sqrt(np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)).max()
    return time.perf_counter() - t0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# -- euclidean-kernels ------------------------------------------------------------


def load_kernels(d: Path) -> list[dict]:
    docs = json.loads((d / "kernels.json").read_text())
    return [{
        "t": np.asarray(doc["t"]), "xy": np.asarray(doc["xy"]),
        "support": tuple(doc["sample"]["support"]), "values": tuple(doc["sample"]["values"]),
        "trace": np.asarray(doc["trace"]), "smooth": np.asarray(doc["smooth"]),
        "spikes": np.asarray(doc["spikes"], dtype=int),
    } for doc in docs]


def kernels_op(inp: dict):
    space = cl.MetricSpace.from_points(inp["xy"])
    curve = cl.SampledCurve(space, inp["t"], np.arange(len(inp["t"])))
    witness = cl.sawtooth_witness(curve, TOOTH)
    content = cl.hausdorff1_content(space, curve.samples, DELTA)
    sample = cl.LipschitzSample(space, inp["support"], inp["values"], 1.0)
    contraction = cl.check_contraction(curve, sample)
    probes = cl.probe_family(curve, 64)
    profile = cl.chord_arc_profile(curve)
    area = cl.area_formula_check(curve, witness.realization.values)
    luzin = cl.luzin_n_probe(curve, [NULL_SET], DELTA)
    rep = cl.continuous_representative(inp["trace"], EPSILONS, window=gen.RECOVER_WINDOW)
    return witness, content, (contraction, area, luzin), probes, profile, rep


def kernels_summary(out) -> dict:
    witness, content, reports, probes, profile, rep = out
    return {
        "lip": witness.certificates["lip_constant"],
        "tv": witness.certificates["total_variation"],
        "values": np.asarray(witness.realization.values),
        "content": content,
        "verdicts": [r.verdict for r in reports],
        "centers": list(probes.centers),
        "profile_min": float(np.min(profile)),
        "rep": None if rep is None else rep[0],
    }


def _check_sawtooth(s: dict, xy: np.ndarray, dists: np.ndarray) -> list[str]:
    """Certificates against a brute-force pdist reference."""
    from scipy.spatial.distance import pdist
    errors = []
    tv, wave = gen.arc_triangle_wave(xy)
    if abs(s["tv"] - tv) > RTOL * tv:
        errors.append(f"total_variation {s['tv']!r} != chord sum {tv!r}")
    if not np.allclose(s["values"], wave, rtol=0.0, atol=RTOL):
        errors.append("sawtooth values differ from the triangle wave of arc length")
    lip = float(np.max(pdist(s["values"][:, None]) / dists))
    if abs(s["lip"] - lip) > RTOL * lip:
        errors.append(f"lip_constant {s['lip']!r} != brute force {lip!r}")
    if not 0.0 < s["content"] <= tv + float(np.max(dists)):
        errors.append(f"hausdorff1_content {s['content']!r} outside (0, TV + diam]")
    return errors


def kernels_check(inp: dict, s: dict) -> list[str]:
    from scipy.spatial.distance import pdist
    errors = _check_sawtooth(s, inp["xy"], pdist(inp["xy"]))
    for name, ok in zip(("check_contraction", "area_formula_check", "luzin_n_probe"), s["verdicts"]):
        if not ok:
            errors.append(f"{name} did not pass")
    if len(set(s["centers"])) != 64 or s["centers"][0] != 0:
        errors.append(f"probe_family centers {s['centers'][:4]}...")
    if s["profile_min"] < 1.0 - RTOL:
        errors.append(f"chord_arc_profile below 1: {s['profile_min']!r}")
    if s["rep"] is None:
        errors.append("continuous_representative returned no trace")
    elif np.max(np.abs(s["rep"][inp["spikes"]] - inp["smooth"][inp["spikes"]])) >= 0.5:
        errors.append("continuous_representative left a spike in place")
    return errors


# -- cli-batch (in-process pass of the traced run) ---------------------------------


def load_cli(d: Path) -> list[bytes]:
    return [p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()]


def cli_call(argv: list[str]) -> tuple[int, str]:
    """curve_lab.cli.main in-process; an escaping exception maps to exit 1,
    as it would in a subprocess."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the defect under probe is a traceback
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


# -- timing loop --------------------------------------------------------------------


def _fingerprint(summary: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(summary):
        v = summary[key]
        h.update(key.encode())
        h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    return h.hexdigest()


class Loop:
    """Runs ops in a closed loop; checks each output between ops, outside
    the timed region.  The first output per input gets the full check, later
    outputs on that input must match it exactly."""

    def __init__(self, op, summarize, check, inputs, tracer=None):
        self.op, self.summarize, self.check, self.inputs = op, summarize, check, inputs
        self.tracer = tracer
        self.seen: dict[int, tuple[str, list[str]]] = {}  # input -> (fingerprint, errors)
        self.failures: list[str] = []
        self.failed_ops = 0

    def _verify(self, m: int, out) -> list[str]:
        summary = self.summarize(out)
        fp = _fingerprint(summary)
        if m not in self.seen:
            self.seen[m] = (fp, self.check(self.inputs[m], summary))
        first_fp, errors = self.seen[m]
        return errors if fp == first_fp else ["output differs from an earlier op on the same input"]

    def run(self, seconds: float, first_op: int = 0) -> dict:
        lat, cpu, ref = [], [], []
        check_s = 0.0
        start = time.perf_counter()
        i = first_op
        while time.perf_counter() - start - check_s < seconds:
            m = i % len(self.inputs)
            ref.append(reference())
            if self.tracer is not None:
                self.tracer.op = i
                self.tracer.on = True
            c0, t0 = _cpu(), time.perf_counter()
            try:
                out, error = self.op(self.inputs[m]), None
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                out, error = None, f"op {i} raised {exc!r}"
            t1, c1 = time.perf_counter(), _cpu()
            if self.tracer is not None:
                self.tracer.on = False
            lat.append(t1 - t0)
            cpu.append(c1 - c0)
            errors = [error] if error else self._verify(m, out)
            del out
            self.failures.extend(f"op {i} (input {m}): {e}" for e in errors)
            self.failed_ops += bool(errors)
            check_s += time.perf_counter() - t1
            i += 1
        return {"lat": lat, "cpu": cpu, "ref": ref}


WORKLOADS = {
    "euclidean-kernels": (load_kernels, kernels_op, kernels_summary, kernels_check),
}


def _inprocess(args, inputs) -> dict:
    _load, op, summarize, check = WORKLOADS[args.workload]
    op(inputs[0])  # warm-up, untimed: first-call costs users pay once per process
    loop = Loop(op, summarize, check, inputs)
    if args.mode == "run":
        res = loop.run(args.seconds)
        return {**res, "failed_ops": loop.failed_ops, "failures": loop.failures}
    from spans import Tracer
    plain = loop.run(args.seconds / 3.0)
    tracer = Tracer()
    tracer.install(cl)
    tracer.on = False
    traced = Loop(op, summarize, check, inputs, tracer)
    traced.seen = loop.seen
    res = traced.run(args.seconds * 2.0 / 3.0, first_op=len(plain["lat"]))
    tracer.uninstall()
    tracer.dump(args.spans)
    return {"untraced": plain, "traced": res, "layers": tracer.layer_totals(),
            "failed_ops": loop.failed_ops + traced.failed_ops,
            "failures": loop.failures + traced.failures}


def _cli_trace(args) -> dict:
    """The cycle's argv through curve_lab.cli.main: one untraced cycle, then
    traced cycles until the time is up.  The checks never call curve_lab,
    so the tracer stays on through them."""
    import clicycle
    from spans import Tracer
    d = Path(args.inputs)
    tempfile.tempdir = str(d)
    calls = clicycle.cycle(d, args.seed)
    ref = clicycle.Reference(json.loads((d / "reference.json").read_text()))
    tracer = Tracer()
    lat: dict[str, list[float]] = {"untraced": [], "traced": []}
    refs: dict[str, list[float]] = {"untraced": [], "traced": []}
    inproc: dict[str, list[float]] = {c.name: [] for c in calls}
    failures, probe_failures = [], 0
    start = time.perf_counter()
    check_s = 0.0

    def cycle(phase: str) -> None:
        nonlocal check_s, probe_failures
        for call in calls:
            clicycle.clear(call)
            tracer.op = len(lat["untraced"]) + len(lat["traced"])
            refs[phase].append(reference())
            t0 = time.perf_counter()
            code, err = cli_call(call.argv)
            t1 = time.perf_counter()
            lat[phase].append(t1 - t0)
            if phase == "traced":
                inproc[call.name].append(t1 - t0)
            problem = clicycle.verify(call, code, err, ref)
            if problem and call.probe:
                probe_failures += 1
            elif problem:
                failures.append(f"{call.name}: {problem}")
            check_s += time.perf_counter() - t1

    cycle("untraced")
    tracer.install(cl)
    cycle("traced")
    while time.perf_counter() - start - check_s < args.seconds:
        cycle("traced")
    tracer.uninstall()
    tracer.dump(args.spans)
    return {"untraced": {"lat": lat["untraced"], "ref": refs["untraced"]},
            "traced": {"lat": lat["traced"], "ref": refs["traced"]},
            "inproc": inproc, "layers": tracer.layer_totals(), "failed_ops": len(failures),
            "failures": failures, "probe_failures": probe_failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--result", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    d = Path(args.inputs)
    if args.workload == "cli-batch":
        import curve_lab.cli  # noqa: F401 - the CLI's own import cost is set-up
        inputs = load_cli(d)
    else:
        inputs = WORKLOADS[args.workload][0](d)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0
    result = _cli_trace(args) if args.workload == "cli-batch" else _inprocess(args, inputs)
    result["ref_s"] = REF_KERNEL_S
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
