"""Explicit witness constructions: sawtooth functions of arc length,
alternating separated-ball witnesses, and an inductive selector that forges a
unit-ball element on which a sequence of functionals diverges."""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import HorizonError, InputError, _float_array

# Each witness imports the curves and lipschitz names it calls, so forge
# loads neither.
if TYPE_CHECKING:
    from .curves import SampledCurve
    from .lipschitz import LipschitzSample
    from .metric import MetricSpace


class WitnessFunction(NamedTuple):
    """A realized Lipschitz sample plus the numeric properties certified for it."""

    realization: LipschitzSample
    certificates: dict

    def to_json(self) -> dict:
        return {"sample": self.realization.to_json(), "certificates": dict(self.certificates)}


def triangle_wave(t, tooth: float):
    """Continuous triangle wave: period 2*tooth, range [0, tooth], slope +-1,
    rising on [2k*tooth, (2k+1)*tooth] and falling on the next tooth."""
    if not tooth > 0:
        raise InputError(f"tooth must be positive, got {tooth}")
    r = np.mod(_float_array(t, "triangle wave t"), 2.0 * tooth)
    out = np.where(r <= tooth, r, 2.0 * tooth - r)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


def _chord_arc_defect(space: MetricSpace, samples: np.ndarray, s: np.ndarray) -> float:
    """Max over pairs of distinct samples of (arc separation / distance) - 1,
    floored at 0: the arc coordinate's Lipschitz constant on the samples, less 1."""
    from .lipschitz import lip_constant
    return max(1.0, lip_constant(samples, s, space)) - 1.0


def sawtooth_witness(curve: SampledCurve, tooth: float) -> WitnessFunction:
    """Triangle wave of the arc-length coordinate, realized on the curve's
    samples.

    Certifies: sup bound by the tooth size, the realized Lipschitz constant
    (<= 1 + chord-arc defect), the variation of the post-composition over the
    finest grid, and the grid floor under it with ``floor_met``.  The wave has
    slope +-1, so only a step across a fold (where floor(s / tooth) changes)
    can lose length: the floor is the total variation less those steps' arc
    lengths.  ``floor_met`` allows the floor a relative 1e-9 of the total
    variation for rounding."""
    from .curves import total_variation
    from .lipschitz import LipschitzSample, lip_constant
    if not curve.is_simple():
        raise InputError("sawtooth witness requires a simple curve")
    tv = total_variation(curve)
    if tv <= 0:
        raise InputError("sawtooth witness requires positive total variation")
    if tooth > tv:  # triangle_wave rejects a tooth that is not positive
        raise InputError(f"tooth {tooth} exceeds curve length {tv}")

    s = curve.arc_coordinates()
    values = triangle_wave(s, tooth)
    # One pass over the distances gives the wave's constant and the arc
    # coordinate's, whose excess over 1 is the chord-arc defect.
    lc, lip_s = lip_constant(curve.samples, np.column_stack([values, s]), curve.space)
    lc, eta = float(lc), max(1.0, float(lip_s)) - 1.0
    realization = LipschitzSample(space=curve.space, support=curve.samples, values=values,
                                  L=max(1.0, lc), _lip=lc)
    variation = float(np.sum(np.abs(np.diff(values))))
    folds = np.diff(np.floor(s / tooth)) != 0
    floor = tv - float(np.sum(np.diff(s)[folds]))
    certificates = {
        "tooth": float(tooth),
        "total_variation": tv,
        "sup_abs": float(np.max(np.abs(values))),
        "lip_constant": lc,
        "chord_arc_defect": eta,
        "composed_variation": variation,
        "variation_floor": floor,
        "floor_met": variation >= floor - 1e-9 * tv,
    }
    return WitnessFunction(realization=realization, certificates=certificates)


def variation_preserving_witness(curve: SampledCurve, slack: float) -> WitnessFunction:
    """Sawtooth witness with tooth = slack/2, targeting a post-composition
    variation of at least total_variation - slack with sup bound slack/2.
    ``target_met`` says whether the composed variation reaches the target,
    up to the rounding allowance of ``floor_met``; a coarse grid may miss it."""
    if not slack > 0:
        raise InputError(f"slack must be positive, got {slack}")
    witness = sawtooth_witness(curve, slack / 2.0)
    tv, variation = witness.certificates["total_variation"], witness.certificates["composed_variation"]
    certs = dict(witness.certificates, slack=float(slack), variation_target=tv - slack,
                 target_met=variation >= tv - slack - 1e-9 * tv)
    return WitnessFunction(realization=witness.realization, certificates=certs)


def alternating_separated_witness(space: MetricSpace, ordered_points: Sequence[int],
                                  radii: Sequence[float]) -> WitnessFunction:
    """Values (-1)^k * radius_k on points whose pairwise distances dominate
    the radius sums; 1-Lipschitz on its support by construction.

    Certifies the lower bound sum_k (radius_k + radius_{k+1}) on the variation
    of any post-composition along a curve visiting the points in order: the
    alternating signs make every adjacent jump equal the radius sum exactly.
    """
    from .lipschitz import LipschitzSample
    pts = space.check_ids(ordered_points)
    radii = _float_array(radii, "radii", ndim=1)
    if len(pts) != len(radii):
        raise InputError(f"{len(pts)} points but {len(radii)} radii")
    if len(pts) == 0:
        raise InputError("empty point list")
    if not np.all(radii > 0):
        raise InputError("radii must be positive")
    if len(np.unique(pts)) != len(pts):
        raise InputError("ordered points must be distinct")
    dmat = space.dist_block(pts, pts)
    need = radii[:, None] + radii[None, :]
    np.fill_diagonal(need, 0.0)
    bad = np.argwhere(dmat < need)
    if len(bad):
        i, j = bad[0]
        raise InputError(
            f"separation precondition fails for pair ({pts[i]},{pts[j]}): "
            f"dist={float(dmat[i, j])!r} < radius sum {float(need[i, j])!r}"
        )
    ks = np.arange(1, len(pts) + 1)
    values = ((-1.0) ** ks) * radii
    realization = LipschitzSample(space=space, support=pts, values=values, L=1.0)
    lower = float(np.sum(radii[:-1] + radii[1:])) if len(pts) > 1 else 0.0
    margin = float(np.min((dmat - need)[np.triu_indices(len(pts), k=1)])) if len(pts) > 1 else float("inf")
    certificates = {
        "variation_lower_bound": lower,
        "separation_margin": margin,
        "sup_abs": float(np.max(np.abs(values))),
    }
    return WitnessFunction(realization=realization, certificates=certificates)


# -- divergence forge ----------------------------------------------------------


class ForgeProblem:
    """A sequence of nonnegative, positively homogeneous, countably
    subadditive functionals p_m over combinations of unit-norm basis elements.

    ``functional(m, combo)`` evaluates p_m at sum_i alpha_i * z_{e_i}, where
    combo is a sequence of (element index, coefficient) pairs.  ``horizon``,
    a nonnegative integer, bounds the total number of functional evaluations
    per forge run.
    """

    __slots__ = ("functional", "horizon")

    def __init__(self, functional: Callable[[int, Sequence[tuple[int, float]]], float],
                 horizon: int = 10**6):
        if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 0:
            raise InputError(f"horizon must be a nonnegative integer, got {horizon!r}")
        self.functional = functional
        self.horizon = horizon


class ForgeResult(NamedTuple):
    alphas: tuple[float, ...]
    indices: tuple[int, ...]
    level_bounds: tuple[float, ...]
    selection_slacks: tuple[dict, ...]


def banach_steinhaus_forge(problem: ForgeProblem, depth: int) -> ForgeResult:
    """Inductively pick coefficients alpha_j and indices m_j so that the
    partial sum of alpha_j * z_{m_j} makes the functionals grow without bound.

    Level initialization is alpha_1 = 1/2, m_1 = 1.  Every subsequent level j
    satisfies, with zero tolerance,

        max(alpha_{j+1}, alpha_{j+1} * p_{m_j}(z_{m_{j+1}})) <= 2**-j
        alpha_{j+1} * p_{m_{j+1}}(z_{m_{j+1}}) >= 3 * max(j, sum_i alpha_i * p_{m_j}(z_{m_i}))

    and the returned chain certificate p_{m_{j+1}}(partial sum) >= j is
    re-evaluated numerically on the final combination.  Index search is a
    linear scan; exhausting the evaluation horizon raises
    :class:`HorizonError` with the level reached.
    """
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    # p counts its evaluations against the horizon and names the current level.
    calls, level = 0, 1

    def p(m: int, combo) -> float:
        nonlocal calls
        if calls >= problem.horizon:
            raise HorizonError(f"functional-evaluation horizon exhausted at level {level}", level=level)
        calls += 1
        v = float(problem.functional(m, combo))
        if v < 0:
            raise InputError(f"functional p_{m} returned a negative value {v!r}")
        return v

    alphas = [0.5]
    indices = [1]
    slacks: list[dict] = []
    for j in range(1, depth):
        level = j
        m_j = indices[-1]
        combo_sum = sum(a * p(m_j, ((mi, 1.0),)) for a, mi in zip(alphas, indices))
        need = 3.0 * max(float(j), combo_sum)
        cap = 2.0 ** (-j)
        m = m_j + 1
        while True:
            growth = p(m, ((m, 1.0),))
            cross = p(m_j, ((m, 1.0),))
            alpha = cap / max(1.0, cross)
            if alpha * growth >= need:
                break
            m += 1
        indices.append(m)
        alphas.append(alpha)
        slacks.append(
            {
                "level": j,
                "cap_inequality": cap - max(alpha, alpha * cross),
                "growth_inequality": alpha * growth - need,
            }
        )
        # The growth inequality holds by the loop's exit; the cap inequality
        # must hold exactly too, with no tolerance.
        if max(alpha, alpha * cross) > cap:
            raise InputError(f"level {j}: max(alpha, alpha * p_m{m_j}(z_m{m})) exceeds 2**-{j}")

    combo = tuple((m, a) for m, a in zip(indices, alphas))
    level_bounds = []
    for j in range(1, depth):
        value = p(indices[j], combo)
        if value < j:
            raise InputError(
                f"chain certificate failed at level {j}: p_m{indices[j]}(partial sum) = {value} < {j}; "
                "the functionals are likely not monotone enough in the index"
            )
        level_bounds.append(value)
    return ForgeResult(
        alphas=tuple(alphas),
        indices=tuple(indices),
        level_bounds=tuple(level_bounds),
        selection_slacks=tuple(slacks),
    )


def diagonal_forge_problem() -> ForgeProblem:
    """Toy problem p_m(z) = m * |z_m| on coefficient sequences with unit
    basis elements; p_m(z_m) = m > m - 1 and cross terms vanish."""

    def functional(m: int, combo) -> float:
        return m * sum(abs(a) for e, a in combo if e == m)

    return ForgeProblem(functional=functional)
