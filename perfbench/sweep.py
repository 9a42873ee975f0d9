"""Kernel sweep: the ROADMAP baseline rows timed at n = 1000 and n = 4000.

Not part of the gated benchmark.  Run from the root of a checkout:

    python3 perfbench/sweep.py [--out perfbench/sweep_baseline.json]

Each case runs in its own child process on a fixed-seed planar spiral with
n samples.  A case at n = 4000 runs only when its time predicted from
n = 1000 and its complexity stays under CAP_S; otherwise, or when the child
exceeds CAP_S, the case is recorded as capped, with the prediction.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIZES = (1000, 4000)
CAP_S = 60.0
ROUNDS = 3

# case -> exponent of n in its cost, for the capped prediction.
CASES = {
    "validate_metric": 3,
    "sawtooth_witness": 2,
    "hausdorff1_content": 2,
    "lip_constant": 2,
    "_chord_arc_defect": 2,
    "mcshane_extend_all": 2,
    "floyd_warshall_reference": 3,
    "area_formula_check": 2,
    "continuous_representative": 1,
    "luzin_n_probe": 2,
}


def _case(name: str, n: int):
    """Build the inputs for one case and return the call to time."""
    import numpy as np
    import curve_lab as cl
    from curve_lab import witnesses
    import gen

    t, xy = gen.spiral(np.random.default_rng(0), n)
    space = cl.MetricSpace.from_points(xy)
    curve = cl.SampledCurve(space, t, np.arange(n))
    if name == "validate_metric":
        d = gen.distance_matrix(xy)
        return lambda: cl.validate_metric(d)
    if name == "floyd_warshall_reference":
        from scipy.sparse.csgraph import floyd_warshall
        d = gen.distance_matrix(xy)
        return lambda: floyd_warshall(d, directed=False)
    if name == "sawtooth_witness":
        return lambda: cl.sawtooth_witness(curve, gen.TOOTH)
    if name == "hausdorff1_content":
        return lambda: cl.hausdorff1_content(space, curve.samples, gen.DELTA)
    wave = gen.arc_triangle_wave(xy)[1]
    if name == "lip_constant":
        return lambda: cl.lip_constant(curve.samples, wave, space)
    if name == "_chord_arc_defect":
        s = curve.arc_coordinates()
        return lambda: witnesses._chord_arc_defect(space, curve.samples, s)
    sample = gen.distance_sample(np.random.default_rng(1), xy)
    lip = cl.LipschitzSample(space, tuple(sample["support"]), tuple(sample["values"]), 1.0)
    if name == "mcshane_extend_all":
        return lambda: cl.mcshane_extend_all(lip, None)
    if name == "area_formula_check":
        return lambda: cl.area_formula_check(curve, wave)
    if name == "continuous_representative":
        _smooth, spiked, _spikes = gen.spiked_trace(np.random.default_rng(2), t)
        return lambda: cl.continuous_representative(spiked, gen.EPSILONS, window=gen.RECOVER_WINDOW)
    if name == "luzin_n_probe":
        return lambda: cl.luzin_n_probe(curve, [gen.NULL_SET], gen.DELTA)
    raise KeyError(name)


def child(name: str, n: int, rounds: int) -> None:
    call = _case(name, n)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    print(json.dumps(times))


def run_case(name: str, n: int, rounds: int, root: Path, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "sweep.py"), "--child", name, "--n", str(n),
           "--rounds", str(rounds)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CAP_S * rounds)
    except subprocess.TimeoutExpired:
        return {"status": "capped", "reason": f"exceeded {CAP_S * rounds:g} s"}
    if proc.returncode != 0:
        return {"status": "error", "stderr": proc.stderr[-500:]}
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {"status": "ok", "median_s": statistics.median(times), "iqr_s": q[2] - q[0],
            "rounds": len(times)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", default=None)
    ap.add_argument("--n", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=ROUNDS)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.n, args.rounds)
        return 0
    root = Path.cwd()
    sys.path.insert(0, str(HERE))
    from run import child_env, environment
    env = child_env(root, root)
    results = []
    for name, exponent in CASES.items():
        base = None
        for n in SIZES:
            row: dict = {"case": name, "n": n}
            if n == SIZES[0]:
                row.update(run_case(name, n, ROUNDS, root, env))
                base = row.get("median_s")
            elif base is None:
                row["status"] = "skipped: no time at the smaller size"
            else:
                predicted = base * (n / SIZES[0]) ** exponent
                row["predicted_s"] = predicted
                if predicted > CAP_S:
                    row.update({"status": "capped", "reason": f"predicted {predicted:.0f} s > cap {CAP_S:g} s"})
                else:
                    row.update(run_case(name, n, 1 if predicted > 10 else ROUNDS, root, env))
            print(json.dumps(row), flush=True)
            results.append(row)
    doc = {"cap_s": CAP_S, "env": environment(root, env), "cases": results}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
