"""Water-filling capacity optimization over a pole-refined frequency grid.

The capacity problem separates per frequency; the optimal transmit-current
spectral density is 1/(mu*beta) - 1/alpha wherever positive, with the
Lagrange multiplier mu set by the power budget.  The budget is inverted to
mu exactly, with no tolerance: sorting the nodes by alpha/beta makes the
power of every candidate support a closed form in running sums.  Poles of
the channel are local minima of alpha/beta, so the optimal allocation
avoids resonances.  Every solver reads `linkmodel._profile` through
`_coupled_profile`, which refuses a channel that couples at no node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel, poles_in_interval
from .linkmodel import Band, ReceiverParams, _Profile, _profile, _trapezoid_weights

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
    nodes = nodes[np.r_[True, np.diff(nodes) > h * 1e-9]]
    right = np.clip(np.searchsorted(nodes, poles), 1, len(nodes) - 1)
    pole_idx = right - (poles - nodes[right - 1] <= nodes[right] - poles)
    nodes[pole_idx] = poles
    weights = _trapezoid_weights(nodes)
    return FrequencyGrid(nodes, weights, pole_idx)


def _coupled_profile(model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid) -> _Profile:
    """The grid's profile; refuses a channel that couples at no node."""
    prof = _profile(model, rx, grid.nodes)
    if not np.any(prof.coupled):
        raise ValueError("channel has no coupling anywhere in the band")
    return prof


def _solve(profile: _Profile, grid: FrequencyGrid, mu: float) -> WaterfillSolution:
    support = profile.coupled & (profile.ratio > mu)
    s_it = np.zeros_like(grid.nodes)
    s_it[support] = 1 / (mu * profile.beta[support]) - 1 / profile.alpha[support]
    w = grid.weights[support] / (2 * math.pi)
    capacity = float(np.sum(w * np.log2(profile.ratio[support] / mu)))
    power = float(np.sum(w * (1 / mu - 1 / profile.ratio[support])))
    return WaterfillSolution(mu, support, s_it, capacity, power)


def solve_for_mu(
    model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid, mu: float
) -> WaterfillSolution:
    """Water-filling allocation for a given Lagrange multiplier mu > 0."""
    if not 0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    return _solve(_coupled_profile(model, rx, grid), grid, mu)


def solve_for_power(
    model: ChannelModel,
    rx: ReceiverParams,
    grid: FrequencyGrid,
    p_t: float,
) -> WaterfillSolution:
    """Invert the power budget to mu exactly, by sorting the nodes on alpha/beta.

    With the coupled nodes in descending order of r = alpha/beta, powering the
    top k of them at budget p_t takes the level mu_k = W_k / (p_t + V_k),
    where W_k and V_k are the running sums of w and w/r (w the quadrature
    weight over 2 pi).  The optimum powers the top k for the first k whose
    level excludes node k+1, or the whole band if none does.
    """
    if not 0 < p_t < math.inf:
        raise ValueError("p_t must be positive and finite")
    prof = _coupled_profile(model, rx, grid)
    n_coupled = int(np.count_nonzero(prof.coupled))
    # built in place: the profile already holds several arrays of grid size
    order = np.argsort(np.where(prof.coupled, prof.ratio, -np.inf))[::-1][:n_coupled]
    r = prof.ratio[order]
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
    k = int(np.argmax(exceeded)) if exceeded.any() else n_coupled - 1
    r_k = float(r[k])
    del levels, r, exceeded
    # the running sums fix the support; its level comes from plain sums over
    # it, which do not accumulate roundoff along the sorted order
    support = prof.coupled & (prof.ratio >= r_k)
    w = grid.weights[support] / (2 * math.pi)
    mu = float(np.sum(w)) / (p_t + float(np.sum(w / prof.ratio[support])))
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
    """One solution per mu (descending) above the full-support endpoint, plus it.

    Without `mu_list`, 50 logarithmically spaced multipliers run from just
    below the maximum of alpha/beta (empty support) to its minimum.  The
    termination point is the largest multiplier that powers the whole band:
    the minimum of alpha/beta over the coupled nodes, backed off by a
    relative epsilon so the strict support inequality includes the
    minimizing node; multipliers at or below it are dropped.
    """
    prof = _coupled_profile(model, rx, grid)
    r_coupled = prof.ratio[prof.coupled]
    mu_full = float(np.min(r_coupled)) * (1 - 1e-12)
    if mu_list is None:
        mu_list = np.geomspace(float(np.max(r_coupled)) * (1 - 1e-9), float(np.min(r_coupled)), 50)
    mu_list = list(mu_list)
    if not all(0 < m < math.inf for m in mu_list):
        raise ValueError("multipliers must be positive and finite")
    if any(b >= a for a, b in zip(mu_list, mu_list[1:])):
        raise ValueError("mu_list must be sorted descending")
    points = [_solve(prof, grid, mu) for mu in mu_list if mu > mu_full]
    return SweepResult(points, _solve(prof, grid, mu_full))
