"""The recovery and area-formula sweeps against the row-at-a-time loops they
replace, copied here as oracles.

Recovery must match its oracle bit for bit, trace and fraction, including
replacements that change the verdict at the samples after them.  The area
formula must match exactly without weights, where every crossing count is an
exact integer, and to 1e-12 relative with weights, whose per-interval sums
are accumulated in another order."""
import numpy as np
import pytest

from curve_lab import (InputError, area_formula_check, continuous_representative,
                       discontinuity_measure, triangle_wave, verify)
from conftest import euclidean_curve


def _recover_oracle(values, schedule, window):
    """The sequential loop; also says whether some replacement changed the
    verdict at a later sample of the same sweep."""
    v = np.array(values, dtype=float)
    n = len(v)
    modified = np.zeros(n, dtype=bool)
    cascaded = False
    for eps in schedule:
        before = v.copy()
        for i in range(n):
            lo, hi = max(0, i - window), min(n, i + window + 1)
            nbhd = v[lo:hi]
            far = ~(np.abs(nbhd - v[i]) < eps)
            replace = np.sum(far) > len(nbhd) / 2.0
            old = before[lo:hi]
            cascaded |= bool(replace != (np.sum(~(np.abs(old - old[i - lo]) < eps)) > len(old) / 2.0))
            if replace:
                v[i] = float(np.median(nbhd[far]))
                modified[i] = True
    dt = 1.0 / (n - 1)
    residual = discontinuity_measure(v, schedule[-1], max(2.5 * dt, 2.0 * dt))
    result = None if residual.measure > dt * dt else (v, float(np.mean(modified)))
    return result, cascaded


def _trace(rng, n):
    base = (np.sin(np.linspace(0.0, rng.uniform(1.0, 12.0), n)) if rng.random() < 0.5
            else np.cumsum(rng.normal(0.0, 0.05, n)))
    kind = rng.integers(4)
    if kind == 0:  # isolated spikes
        idx = rng.choice(n, size=rng.integers(0, n // 4 + 1))
        base[idx] += rng.choice([-3.0, 2.0, 5.0], size=len(idx))
    elif kind == 1:  # a run of adjacent deviants
        s = rng.integers(0, n)
        base[s:s + rng.integers(2, 6)] += rng.choice([1.0, 4.0])
    elif kind == 2:  # every k-th sample
        base[rng.integers(0, 3)::rng.integers(2, 4)] = 5.0
    else:  # deviants at both ends
        base[0] += 4.0
        base[-1] -= 4.0
    return base


def test_recovery_matches_the_sequential_loop():
    rng = np.random.default_rng(2024)
    counts = {"found": 0, "cascaded": 0, "first": 0, "last": 0}
    for case in range(240):
        window = int(rng.integers(3, 8))
        n = int(rng.integers(window, 301)) if case % 4 else window + case % 3
        values = _trace(rng, n)
        schedule = sorted(rng.choice([3.0, 1.0, 0.5, 0.2, 0.05], size=rng.integers(1, 4),
                                     replace=False), reverse=True)
        want, cascaded = _recover_oracle(values, schedule, window)
        got = continuous_representative(values, schedule, window=window)
        if want is None:
            assert got is None, case
            continue
        assert got is not None, case
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], case
        counts["found"] += 1
        counts["cascaded"] += cascaded
        counts["first"] += bool(got[0][0] != values[0])
        counts["last"] += bool(got[0][-1] != values[-1])
    # The cases exercise what the sweep must get right.
    assert min(counts.values()) >= 5, counts


def _sweep_events(values, schedule, window):
    """Replays the sequential loop and says whether some replacement took the
    mean of two different middle values (a far cluster of even size), and
    whether a replacement changed the verdict at the last sample of its sweep
    (a cascade that runs off the end of the trace)."""
    v = np.array(values, dtype=float)
    n = len(v)
    even = tail = False
    for eps in schedule:
        before = v.copy()
        for i in range(n):
            lo, hi = max(0, i - window), min(n, i + window + 1)
            far = np.sort(v[lo:hi][~(np.abs(v[lo:hi] - v[i]) < eps)])
            replace = len(far) > (hi - lo) / 2.0
            if i == n - 1:
                old = before[lo:hi]
                tail |= bool(replace != (np.sum(~(np.abs(old - old[-1]) < eps)) > len(old) / 2.0))
            if replace:
                m = len(far) // 2
                even |= len(far) % 2 == 0 and bool(far[m - 1] != far[m])
                v[i] = float(np.median(far))
    return even, tail


def test_recovery_with_windows_up_to_11_matches_the_sequential_loop():
    rng = np.random.default_rng(11)
    counts = {"found": 0, "cascaded": 0, "even": 0, "tail": 0}
    for case in range(200):
        window = int(rng.integers(3, 12))
        n = int(rng.integers(window, 301)) if case % 4 else window + case % 3
        values = _trace(rng, n)
        schedule = sorted(rng.choice([3.0, 1.0, 0.5, 0.2, 0.05], size=rng.integers(1, 4),
                                     replace=False), reverse=True)
        want, cascaded = _recover_oracle(values, schedule, window)
        got = continuous_representative(values, schedule, window=window)
        if want is None:
            assert got is None, case
            continue
        assert got is not None, case
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], case
        even, tail = _sweep_events(values, schedule, window)
        counts["found"] += 1
        counts["cascaded"] += cascaded
        counts["even"] += even
        counts["tail"] += tail
    assert min(counts.values()) >= 5, counts


def test_recovery_gives_np_median_zero_signs():
    """np.median returns 0.0 for a far cluster whose middle is -0.0; the
    trace must match its oracle in every bit, signs of zeros included."""
    rng = np.random.default_rng(8)
    zero_medians = 0
    for case in range(150):
        window = int(rng.integers(3, 8))
        values = rng.choice([-0.0, 0.0, -1.0, 1.0, 5.0], size=int(rng.integers(window, 60)))
        want, _ = _recover_oracle(values, [0.5], window)
        got = continuous_representative(values, [0.5], window=window)
        if want is None:
            assert got is None, case
            continue
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1], case
        replaced = want[0].view(np.int64) != values.view(np.int64)
        zero_medians += bool(np.any(replaced & (want[0] == 0)))
    assert zero_medians >= 5, zero_medians


def test_recovery_of_dense_deviants_matches_the_sequential_loop():
    values = np.sin(np.linspace(0.0, 3.0, 600))
    values[::3] = 5.0
    want, _ = _recover_oracle(values, (1.0, 0.5), 5)
    got = continuous_representative(values, (1.0, 0.5), window=5)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1] == pytest.approx(1 / 3)


def _deviants_oracle(v, eps, window):
    """The sliding-view formula: each sample against its window padded with
    inf at the trace ends."""
    padded = np.concatenate([np.full(window, np.inf), v, np.full(window, np.inf)])
    spans = np.lib.stride_tricks.sliding_window_view(padded, 2 * window + 1)
    close = np.count_nonzero(np.abs(spans - v[:, None]) < eps, axis=1)
    size = np.minimum(np.arange(len(v)), window) + np.minimum(np.arange(len(v))[::-1], window) + 1
    return 2 * close < size


def test_deviants_match_the_sliding_view():
    rng = np.random.default_rng(13)
    for case in range(400):
        window = int(rng.integers(3, 12))
        # Traces shorter than a window, as long as one, and longer, so that
        # both ends cut windows short.
        n = int(rng.choice([1, 2, window - 1, window, window + 1, 2 * window + 1, 2 * window + 2, 60]))
        v = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0, 3.0], size=n) + rng.choice([0.0, 1e-9], size=n)
        if case % 4 == 0:
            v = rng.standard_normal(n)
        if case % 5 == 0:
            v[rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
        for eps in (0.25, 0.5, 1.0, 2.0 ** -30):
            with np.errstate(invalid="ignore"):
                want = _deviants_oracle(v, eps, window)
                got = verify._deviants(v, eps, window)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (case, n, window, eps, v)


def _area_rhs_oracle(h, theta):
    """The level sweep: per elementary interval, the weight of the steps
    that cross it, summed in interval order."""
    theta_bar = 0.5 * (theta[:-1] + theta[1:])
    levels = np.unique(h)
    rhs = 0.0
    lo = np.minimum(h[:-1], h[1:])
    hi = np.maximum(h[:-1], h[1:])
    for a, b in zip(levels[:-1], levels[1:]):
        crossing = (lo <= a) & (hi >= b)
        rhs += (b - a) * float(np.sum(theta_bar[crossing]))
    return rhs


def test_area_formula_matches_the_level_sweep():
    rng = np.random.default_rng(77)
    for case in range(150):
        n = int(rng.integers(2, 400))
        curve = euclidean_curve(np.column_stack([np.arange(n), np.zeros(n)]))
        kind = case % 4
        h = (rng.integers(0, 12, n).astype(float) if kind == 0
             else rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4) if kind == 1
             else triangle_wave(curve.arc_coordinates(), float(rng.integers(1, 9)))
             if kind == 2 else np.full(n, rng.standard_normal()))
        report = area_formula_check(curve, h)
        assert report.rhs == _area_rhs_oracle(h, np.ones(n)), case
        assert report.context == {"levels": len(np.unique(h)), "bookkeeping": True}
        theta = rng.uniform(0.0, 3.0, n)
        weighted = area_formula_check(curve, h, theta)
        want = _area_rhs_oracle(h, theta)
        assert abs(weighted.rhs - want) <= 1e-12 * abs(want), case
        assert weighted.verdict


def test_sweeps_reject_non_finite_input():
    curve = euclidean_curve(np.column_stack([np.arange(7.0), np.zeros(7)]))
    good = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 1.0]
    for bad in (np.nan, np.inf, -np.inf):
        values = list(good)
        values[2] = bad
        with pytest.raises(InputError):
            continuous_representative(values, [0.5], window=3)
        with pytest.raises(InputError):
            area_formula_check(curve, values)
        with pytest.raises(InputError):
            area_formula_check(curve, good, weights=values)
