"""curve-lab's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each a closed loop with one client, one process at a time):

* ``cli-batch``: sequential ``python -m curve_lab.cli`` subprocesses.  An op
  is one call; a cycle is 16 subcommand calls (among them ``validate-metric``
  on a kNN graph space and on a matrix with a planted violation), a 20-entry
  ``report`` bundle and two contract probes.  Import, argument parsing and
  file I/O dominate.
* ``euclidean-kernels``: in-process.  An op is one seeded coordinate-backed
  spiral run through the kernel pipeline (sawtooth witness, H1 content,
  contraction, probes, chord-arc, area, Luzin-N, continuous representative).
  Row-wise distance kernels dominate; ``validate_metric`` never runs.

A shared host can change speed by up to 1.8x over tens of seconds (seen on
a 2-vCPU Xeon VM), so every timed op and set-up is paired with a fixed
reference task timed just before it (``import numpy`` in a fresh interpreter for subprocesses, a numpy
distance pass in-process), and the end-to-end timings are reported in
reference seconds: measured seconds times the reference's nominal time over
its measured time.  The measured seconds are printed beside them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps curve_lab's public functions from outside (``spans.py``) and
prints per-layer metrics.  Every output is checked outside the timed
region; the last stdout line is the JSON result.  Inputs are generated from
``--seed`` into ``.perfbench/`` and removed afterwards; traced runs leave
their spans in ``.perfbench/spans-<workload>.jsonl``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

import clicycle
import gen

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-batch", "euclidean-kernels")

# Sizes: a kernel op takes 0.3-0.6 s, so a 45 s run has 70-140 ops and its
# tail is p75, with at least ten ops beyond it, however fast the host runs
# within that range.  The kernels' n x n temporaries (8 MB at n = 1000)
# still exceed L2.
CLI_N = 300
KERNEL_N, KERNEL_INPUTS = 1000, 8
MIN_CYCLES = 3          # cli-batch runs whole cycles: at least 3 x 19 calls

SETUP_REPS = 3          # fresh set-up-only workers before and again after the ops
IMPORT_REPS = 3         # `python -X importtime` runs in a traced run
CALL_TIMEOUT = 60.0     # seconds a CLI call, or a worker beyond its run time, may take
# Coarse steps keep the tail's percentile fixed while the op count drifts
# with the host's speed: p75 holds from 40 to 199 ops, which covers both
# workloads' runs.
TAIL_LADDER = (99.9, 99.0, 95.0, 75.0, 50.0)
# One BLAS/OpenMP thread per worker: with two, OpenBLAS's idle threads spin
# and a CLI call burns about 1.5 times its wall time in CPU, so its latency
# follows whatever else runs on the host's cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CAP = 1

# Host-speed reference for subprocesses (CLI calls and set-up workers):
# interpreter start plus numpy's import, isolated from the checkout.
REF_IMPORT = ("-I", "-c", "import numpy")
REF_IMPORT_S = 0.15

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("cpu_per_op_s", "s"))

# Per-layer metrics from the traced run: span name -> quantities, each
# normalised per op.
LAYER_SPANS = (
    ("metric.validate_metric", ("calls", "self_s")),
    ("metric.MetricSpace.from_json", ("self_s",)),
    ("metric.MetricSpace.from_graph", ("self_s",)),
    ("metric.MetricSpace.dist_row", ("calls", "entries", "self_s")),
    ("metric.MetricSpace.submatrix", ("calls", "entries", "self_s")),
    ("metric.MetricSpace.pair_distances", ("self_s",)),
    ("lipschitz.lip_constant", ("calls", "self_s")),
    ("lipschitz.mcshane_extend_all", ("self_s",)),
    ("lipschitz.probe_family", ("self_s",)),
    ("curves.hausdorff1_content", ("calls", "self_s")),
    ("curves.load_curve_csv", ("self_s",)),
    ("witnesses.sawtooth_witness", ("calls", "self_s")),
    ("verify.check_contraction", ("self_s",)),
    ("verify.area_formula_check", ("self_s",)),
    ("verify.luzin_n_probe", ("self_s",)),
    ("verify.continuous_representative", ("self_s",)),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for span, quantities in LAYER_SPANS:
        for q in quantities:
            units[f"{span}.{q}"] = "s/op" if q == "self_s" else "count/op"
    units["metric.MetricSpace.dist_row.entries_per_call"] = "count/call"
    units["witnesses.sawtooth_witness.lip_calls_per_call"] = "count/call"
    units["cli.import_s"] = "s"
    units["cli.import_scipy_s"] = "s"
    for name in clicycle.CALL_NAMES:
        units[f"cli.{name}.wall_s"] = "s"
        units[f"cli.{name}.inproc_s"] = "s"
    units["cli.contract_probes.failed_frac"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


# -- environment ------------------------------------------------------------------


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "curve_lab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "commit": _commit(root), "src_sha256": digest.hexdigest()[:16],
    }


# -- processes ----------------------------------------------------------------------


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def start_worker(workload: str, mode: str, work: Path, env: dict, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time (interpreter start, imports, reading inputs)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--inputs", str(work), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not start (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with {code}")


def reference_import(env: dict) -> float:
    """Seconds of the subprocess host-speed reference."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *REF_IMPORT], env=env, capture_output=True,
                          timeout=CALL_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("the reference `import numpy` failed")
    return time.perf_counter() - t0


def setup_times(workload: str, work: Path, env: dict, reps: int) -> list[tuple[float, float]]:
    """(set-up, reference) seconds of ``reps`` fresh set-up-only workers."""
    times = []
    for _ in range(reps):
        ref = reference_import(env)
        proc, setup = start_worker(workload, "setup", work, env)
        finish(proc, CALL_TIMEOUT)
        times.append((setup, ref))
    return times


def run_worker(workload: str, mode: str, work: Path, env: dict, seconds: float,
               seed: int, spans: Path | None = None) -> tuple[dict, tuple[float, float]]:
    result = work / "result.json"
    extra = ["--seconds", str(seconds), "--seed", str(seed), "--result", str(result)]
    if spans is not None:
        extra += ["--spans", str(spans)]
    ref = reference_import(env)
    proc, setup = start_worker(workload, mode, work, env, *extra)
    finish(proc, seconds + CALL_TIMEOUT)
    return json.loads(result.read_text()), (setup, ref)


def cli_cycles(calls, ref, env: dict, root: Path, seconds: float, min_cycles: int) -> dict:
    """Whole cycles of CLI subprocesses, each after a reference import, at
    least ``min_cycles`` and until ``seconds`` have passed; output checks run
    between calls, outside the timed region and the time budget."""
    lat, cpu, refs, by_name = [], [], [], {}
    failures, failed_ops, probe_calls, probe_failures = [], 0, 0, 0
    check_s = 0.0
    start = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - start - check_s < seconds:
        cycles += 1
        for call in calls:
            clicycle.clear(call)
            refs.append(reference_import(env))
            c0, t0 = _child_cpu(), time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "curve_lab.cli", *call.argv], cwd=root,
                                      env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT)
                code, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, err = None, "timed out"
            t1, c1 = time.perf_counter(), _child_cpu()
            lat.append(t1 - t0)
            cpu.append(c1 - c0)
            by_name.setdefault(call.name, []).append(t1 - t0)
            problem = "timed out" if code is None else clicycle.verify(call, code, err, ref)
            if call.probe:
                probe_calls += 1
                probe_failures += problem is not None
            elif problem:
                failed_ops += 1
                failures.append(f"{call.name}: {problem}")
            check_s += time.perf_counter() - t1
    return {"lat": lat, "cpu": cpu, "ref": refs, "ref_s": REF_IMPORT_S, "by_name": by_name,
            "failed_ops": failed_ops, "failures": failures,
            "probe_calls": probe_calls, "probe_failures": probe_failures}


def import_times(env: dict, root: Path) -> tuple[float, float]:
    """Median seconds of `import curve_lab.cli` and of the scipy modules
    it pulls in, from `python -X importtime`."""
    totals, scipys = [], []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import curve_lab.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError("import curve_lab.cli failed")
        total, scipy = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of the top-level curve_lab imports, and of the
    outermost scipy imports (those not nested under another scipy module)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    total = sum(c for d, name, c in rows if d == 0 and name.split(".")[0] == "curve_lab")
    scipy = 0.0
    stack: list[tuple[int, bool]] = []  # ancestors, walking the post-order list backwards
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        under_scipy = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not under_scipy:
            scipy += cumulative
        stack.append((depth, under_scipy or is_scipy))
    return total, scipy


# -- metrics ------------------------------------------------------------------------


def harrell_davis(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  Ops of one kind cluster, and a single order statistic
    jumps between neighbouring clusters from run to run; this does not."""
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    w = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(np.dot(w, ordered))


def tail(lat: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten ops beyond it (by
    nearest rank), estimated by Harrell-Davis, and that percentile."""
    ordered = sorted(lat)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return harrell_davis(ordered, p / 100.0), p
    return ordered[-1], 100.0


def scaled(times, refs, nominal: float) -> list[float]:
    """Measured seconds in reference seconds: each time times the
    reference's nominal seconds over the reference time taken next to it."""
    return [t * nominal / r for t, r in zip(times, refs)]


def end_to_end(res: dict, setups: list[tuple[float, float]], peak_kb: int) -> tuple[dict, dict]:
    lat = scaled(res["lat"], res["ref"], res["ref_s"])
    cpu = scaled(res["cpu"], res["ref"], res["ref_s"])
    setup_raw, setup_ref = zip(*setups)
    n = len(lat)
    tail_s, pct = tail(lat)
    values = {
        "setup_s": statistics.median(scaled(setup_raw, setup_ref, REF_IMPORT_S)),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ops_per_s": n / sum(lat),
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_per_op_s": sum(cpu) / n,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh workers; measured {statistics.median(setup_raw):.4g} s",
        "op_p50_s": f"measured {statistics.median(res['lat']):.4g} s",
        "op_tail_s": f"p{pct:g} of {n} ops; measured {tail(res['lat'])[0]:.4g} s",
        "ops_per_s": f"ops / summed op time; measured {n / sum(res['lat']):.4g} 1/s",
        "cpu_per_op_s": f"measured {sum(res['cpu']) / n:.4g} s",
        "reference": f"op reference median {statistics.median(res['ref']):.4g} s (nominal {res['ref_s']:g} s), "
                     f"set-up reference median {statistics.median(setup_ref):.4g} s (nominal {REF_IMPORT_S:g} s)",
    }
    return values, notes


def layer_values(layers: dict, ops: int) -> dict:
    zero = {"calls": 0, "entries": 0, "self_s": 0.0}
    out = {}
    for span, quantities in LAYER_SPANS:
        agg = layers.get(span, zero)
        for q in quantities:
            out[f"{span}.{q}"] = agg[q] / ops
    rows = layers.get("metric.MetricSpace.dist_row", zero)
    out["metric.MetricSpace.dist_row.entries_per_call"] = rows["entries"] / rows["calls"] if rows["calls"] else 0.0
    saw = layers.get("witnesses.sawtooth_witness", zero)
    out["witnesses.sawtooth_witness.lip_calls_per_call"] = saw.get("lip_calls", 0) / saw["calls"] if saw["calls"] else 0.0
    return out


# -- workloads ------------------------------------------------------------------------


def prepare(workload: str, work: Path, seed: int):
    rng = np.random.default_rng(seed)
    if workload == "euclidean-kernels":
        gen.write_kernel_inputs(work, rng, KERNEL_N, KERNEL_INPUTS)
        return None
    ref = gen.write_cli_inputs(work, rng, CLI_N)
    (work / "reference.json").write_text(json.dumps(ref))
    return clicycle.cycle(work, seed), clicycle.Reference(ref)


def measure(args, root: Path, work: Path, env: dict) -> tuple[dict, dict, dict]:
    """The untraced run: end-to-end metrics, notes and op counts."""
    cli = prepare(args.workload, work, args.seed)
    # Set-up samples on both sides of the ops, so a slow spell of the host
    # does not set the median alone.
    setups = setup_times(args.workload, work, env, SETUP_REPS)
    if args.workload == "cli-batch":
        calls, ref = cli
        res = cli_cycles(calls, ref, env, root, args.seconds, MIN_CYCLES)
    else:
        res, setup = run_worker(args.workload, "run", work, env, args.seconds, args.seed)
        setups.append(setup)
    setups += setup_times(args.workload, work, env, SETUP_REPS)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values, notes = end_to_end(res, setups, peak_kb)
    counts = {"attempted": len(res["lat"]), "failed": res["failed_ops"], "failures": res["failures"]}
    if args.workload == "cli-batch":
        counts["probe"] = (res["probe_failures"], res["probe_calls"])
    return values, notes, counts


def measure_traced(args, root: Path, work: Path, env: dict) -> tuple[dict, dict, dict]:
    """The traced run: per-layer metrics."""
    cli = prepare(args.workload, work, args.seed)
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    values["cli.import_s"], values["cli.import_scipy_s"] = import_times(env, root)
    spans = root / ".perfbench" / f"spans-{args.workload}.jsonl"
    attempted = failed = 0
    failures = []
    if args.workload == "cli-batch":
        calls, ref = cli
        sub = cli_cycles(calls, ref, env, root, args.seconds / 3.0, 1)
        for name, lat in sub["by_name"].items():
            if name in clicycle.CALL_NAMES:
                values[f"cli.{name}.wall_s"] = statistics.median(lat)
        values["cli.contract_probes.failed_frac"] = sub["probe_failures"] / sub["probe_calls"]
        attempted, failed, failures = len(sub["lat"]), sub["failed_ops"], sub["failures"]
        res, _setup = run_worker(args.workload, "trace", work, env, args.seconds / 3.0, args.seed, spans)
        for name, lat in res["inproc"].items():
            if name in clicycle.CALL_NAMES:
                values[f"cli.{name}.inproc_s"] = statistics.median(lat)
    else:
        res, _setup = run_worker(args.workload, "trace", work, env, args.seconds, args.seed, spans)
    traced, untraced = (scaled(res[k]["lat"], res[k]["ref"], res["ref_s"]) for k in ("traced", "untraced"))
    values.update(layer_values(res["layers"], len(traced)))
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = {"trace.overhead_s": f"traced p50 over {len(traced)} ops minus untraced p50 over "
                                 f"{len(untraced)} ops, in reference seconds; spans in "
                                 f"{spans.relative_to(root)}"}
    counts = {"attempted": attempted + len(traced) + len(untraced), "failed": failed + res["failed_ops"],
              "failures": failures + res["failures"]}
    return values, notes, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "curve_lab" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from a curve-lab checkout (no src/curve_lab here)\n")
        return 2
    work = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(root, work)
    try:
        if args.trace:
            values, notes, counts = measure_traced(args, root, work, env)
            units = per_layer_units()
        else:
            values, notes, counts = measure(args, root, work, env)
            units = dict(END_TO_END)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(root, env), sort_keys=True))
    if "reference" in notes:
        print("host-speed reference: " + notes["reference"])
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:52s} {values[name]:.6g} {unit}{note}")
    attempted, failed = counts["attempted"], counts["failed"]
    print(f"  {'failed_frac':52s} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    if "probe" in counts:
        bad, total = counts["probe"]
        print(f"  {'contract_probes.failed_frac':52s} {bad / total:.6g} ratio  "
              f"({bad} of {total} probe calls; {bad / attempted:.4g} of all ops)")
    for line in counts["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
