"""Water-filling capacity optimization over a pole-refined frequency grid.

The capacity problem separates per frequency; the optimal transmit-current
spectral density is 1/(mu*beta) - 1/alpha wherever positive, with the
Lagrange multiplier mu set by the power budget.  The budget is inverted to
mu exactly, with no tolerance: sorting the nodes by alpha/beta makes the
power of every candidate support a closed form in running sums.  Poles of
the channel are local minima of alpha/beta, so the optimal allocation
avoids resonances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel, eval_reactances, poles_in_interval
from .linkmodel import Band, ReceiverParams, _trapezoid_weights, alpha, beta, ratio_alpha_beta

__all__ = [
    "FrequencyGrid",
    "WaterfillSolution",
    "SweepResult",
    "build_grid",
    "solve_for_mu",
    "solve_for_power",
    "sweep",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Trapezoidal quadrature nodes over a band, refined around channel poles."""

    band: Band
    nodes: np.ndarray  # rad/s, strictly increasing
    weights: np.ndarray  # rad/s, positive, summing to the band span
    pole_nodes: np.ndarray  # indices of nodes sitting exactly on poles


@dataclass(frozen=True)
class WaterfillSolution:
    """Optimal allocation for one value of the Lagrange multiplier."""

    mu: float
    support_mask: np.ndarray  # True where transmit power is nonzero
    s_it: np.ndarray  # A^2/Hz per grid node
    capacity: float  # bits/s
    power: float  # W
    grid: FrequencyGrid


@dataclass(frozen=True)
class SweepResult:
    """Capacity-vs-power cross-plot plus the full-support termination point."""

    points: list[WaterfillSolution]
    termination: WaterfillSolution


def build_grid(
    band: Band,
    model: ChannelModel,
    base_points: int = 512,
    refine_levels: int = 6,
) -> FrequencyGrid:
    """Uniform base grid with nested halving refinement around in-band poles.

    Each refinement level halves the spacing inside a window of +-10 spacings
    of the previous level around every pole; every in-band pole is a node.
    """
    if base_points < 16:
        raise ValueError("base_points must be at least 16")
    if refine_levels < 0:
        raise ValueError("refine_levels must be nonnegative")
    lo, hi = band.lo, band.hi
    h = (hi - lo) / (base_points - 1)
    poles = poles_in_interval(model, lo, hi)
    # the offsets of every refinement level, shared by all poles (the empty
    # first piece keeps refine_levels=0 valid)
    offsets = [np.empty(0)]
    window = 10 * h
    spacing = h
    for _ in range(refine_levels):
        spacing /= 2
        n = round(window / spacing)
        offsets.append(spacing * np.arange(-n, n + 1))
        window /= 2
    extra = (poles[:, None] + np.concatenate(offsets)).ravel()
    extra = extra[(extra >= lo) & (extra <= hi)]
    nodes = np.unique(np.concatenate([np.linspace(lo, hi, base_points), extra]))
    # drop near-duplicates that would produce tiny weights, then snap the
    # nearest surviving node onto each pole exactly (the lower one on a tie)
    keep = np.ones(len(nodes), dtype=bool)
    tol = h * 1e-9
    keep[1:] = np.diff(nodes) > tol
    nodes = nodes[keep]
    right = np.clip(np.searchsorted(nodes, poles), 1, len(nodes) - 1)
    pole_idx = right - (poles - nodes[right - 1] <= nodes[right] - poles)
    nodes[pole_idx] = poles
    weights = _trapezoid_weights(nodes)
    return FrequencyGrid(band, nodes, weights, pole_idx)


@dataclass(frozen=True)
class _Profile:
    """Per-node alpha, beta, and their ratio, precomputed once per grid."""

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    valid: np.ndarray  # False where the mutual reactance vanishes (no channel)


def _profile(model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid) -> _Profile:
    s = eval_reactances(model, grid.nodes)
    a = alpha(s, rx, None)
    b = beta(s, rx, None)
    r = ratio_alpha_beta(s, rx, None)
    valid = np.asarray(s.num_rt) != 0
    return _Profile(a, b, r, valid)


def _solve(profile: _Profile, grid: FrequencyGrid, mu: float) -> WaterfillSolution:
    support = profile.valid & (profile.r > mu)
    s_it = np.zeros_like(grid.nodes)
    s_it[support] = 1 / (mu * profile.b[support]) - 1 / profile.a[support]
    w = grid.weights[support] / (2 * math.pi)
    capacity = float(np.sum(w * np.log2(profile.r[support] / mu)))
    power = float(np.sum(w * (1 / mu - 1 / profile.r[support])))
    return WaterfillSolution(mu, support, s_it, capacity, power, grid)


def solve_for_mu(
    model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid, mu: float
) -> WaterfillSolution:
    """Water-filling allocation for a given Lagrange multiplier mu > 0."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return _solve(_profile(model, rx, grid), grid, mu)


def solve_for_power(
    model: ChannelModel,
    rx: ReceiverParams,
    grid: FrequencyGrid,
    p_t: float,
) -> WaterfillSolution:
    """Invert the power budget to mu exactly, by sorting the nodes on alpha/beta.

    With the valid nodes in descending order of r = alpha/beta, powering the
    top k of them at budget p_t takes the level mu_k = W_k / (p_t + V_k),
    where W_k and V_k are the running sums of w and w/r (w the quadrature
    weight over 2 pi).  The optimum powers the top k for the first k whose
    level excludes node k+1, or the whole band if none does.
    """
    if p_t <= 0:
        raise ValueError("p_t must be positive")
    prof = _profile(model, rx, grid)
    n_valid = int(np.count_nonzero(prof.valid))
    if n_valid == 0:
        raise ValueError("channel has no coupling anywhere in the band")
    # built in place: the profile already holds several arrays of grid size
    order = np.argsort(np.where(prof.valid, prof.r, -np.inf))[::-1][:n_valid]
    r = prof.r[order]
    w = grid.weights[order]
    del order
    w /= 2 * math.pi
    levels = np.cumsum(w)
    np.divide(w, r, out=w)
    np.cumsum(w, out=w)
    w += p_t
    np.divide(levels, w, out=levels)
    del w
    exceeded = levels[:-1] >= r[1:]
    k = int(np.argmax(exceeded)) if exceeded.any() else n_valid - 1
    r_k = float(r[k])
    del levels, r, exceeded
    # the running sums fix the support; its level comes from plain sums over
    # it, which do not accumulate roundoff along the sorted order
    support = prof.valid & (prof.r >= r_k)
    w = grid.weights[support] / (2 * math.pi)
    mu = float(np.sum(w)) / (p_t + float(np.sum(w / prof.r[support])))
    del support, w
    # mu < r_k holds exactly; keep roundoff from emptying the support
    mu = min(mu, float(np.nextafter(r_k, 0)))
    return _solve(prof, grid, mu)


def sweep(
    model: ChannelModel,
    rx: ReceiverParams,
    grid: FrequencyGrid,
    mu_list=None,
) -> SweepResult:
    """One solution per mu (descending), plus the full-support endpoint.

    Without `mu_list`, 50 logarithmically spaced multipliers run from just
    below the maximum of alpha/beta (empty support) to its minimum.  The
    termination point is the largest multiplier that powers the whole band:
    the minimum of alpha/beta over the grid, backed off by a relative
    epsilon so the strict support inequality includes the minimizing node.
    """
    prof = _profile(model, rx, grid)
    r_valid = prof.r[prof.valid]
    if mu_list is None:
        mu_list = np.geomspace(float(np.max(r_valid)) * (1 - 1e-9), float(np.min(r_valid)), 50)
    mu_list = list(mu_list)
    if any(m <= 0 for m in mu_list):
        raise ValueError("multipliers must be positive")
    if any(b >= a for a, b in zip(mu_list, mu_list[1:])):
        raise ValueError("mu_list must be sorted descending")
    points = [_solve(prof, grid, mu) for mu in mu_list]
    mu_full = float(np.min(r_valid)) * (1 - 1e-12)
    return SweepResult(points, _solve(prof, grid, mu_full))
