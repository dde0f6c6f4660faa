"""Water-filling capacity optimization over a pole-refined frequency grid.

The capacity problem separates per frequency; the optimal transmit-current
spectral density is 1/(mu*beta) - 1/alpha wherever positive, with the
Lagrange multiplier mu set by the power budget.  The budget is inverted to
mu exactly, with no tolerance and no sort: Newton steps on the water level
drop only unpowered nodes, the level being a mediant of the true one and of
lower ratios, and median splits keep the work linear.  C, P and s_it are
formed on the whole grid with zeros off the support, like the lower bound, so
`lower < C` compares two sums of one positional rule.  Poles that the receive
side sees are local minima of alpha/beta, so the optimal allocation avoids
those resonances.

Every level step is a block step, `_levels`: `sweep` steps its levels in
blocks of max(1, _BLOCK // n) rows on n nodes, and the solvers step a 1-row
block.  Its grid-sized floats go into two work arrays allocated once per
solver call, not once per level, and owned by that call, never by the module
or the grid, so the solvers stay safe to call concurrently.  Each row is
reduced on its own along the contiguous grid axis, by the pairwise sum numpy
gives a 1-D array, so a sweep row is `solve_for_mu` at its level to the bit.
`_BLOCK` is a constant, chosen from sweeps timed at block sizes of 1 to
32,768 values on 633 to 298,000 nodes.

A grid is built for one channel and carries that channel's receive-side
reactances at its nodes, evaluated once.  Every solver profiles them through
`_coupled_profile`, which refuses a model other than the grid's channel and
a channel that couples at no node.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ChannelModel, eval_reactances, poles_in_interval
from .linkmodel import Band, FrequencyGrid, ReceiverParams, _bits, _profile, _trapezoid_weights

__all__ = [
    "WaterfillSolution",
    "SweepPoint",
    "SweepResult",
    "build_grid",
    "solve_for_mu",
    "solve_for_power",
    "sweep",
]

DEFAULT_BASE_POINTS = 512  # the fewest base points a grid sized by its poles gets
_POINTS_PER_POLE = 8
DEFAULT_REFINE_LEVELS = 6
_MAX_REFINE_LEVELS = 29  # h/2**30 is under the near-duplicate spacing h*1e-9
_BLOCK = 8192  # grid values per level-step block, 64 kB a work array (see `sweep`)


@dataclass(frozen=True)
class WaterfillSolution:
    """Optimal allocation for one value of the Lagrange multiplier."""

    mu: float
    support_mask: np.ndarray  # True where transmit power is nonzero
    s_it: np.ndarray  # A^2/Hz per grid node
    capacity: float  # bits/s
    power: float  # W


class SweepPoint(NamedTuple):
    """One row of the capacity-vs-power cross-plot."""

    mu: float
    power: float  # W
    capacity: float  # bits/s
    full_support: bool  # True when every node is powered


@dataclass(frozen=True)
class SweepResult:
    """Capacity-vs-power cross-plot plus the full-support termination point."""

    points: list[SweepPoint]
    termination: SweepPoint


def build_grid(
    band: Band,
    model: ChannelModel,
    base_points: int | None = None,
    refine_levels: int = DEFAULT_REFINE_LEVELS,
) -> FrequencyGrid:
    """Uniform base grid with nested halving refinement around the poles in and near the band.

    Without `base_points` the grid sizes itself: max(512, 8 * in-band poles) base
    points, counted in its one pole query, so the LC, the 5-pole reference line and
    a 40-pole line keep 512 while 2,000 in-band poles get 16,000.
    Level l = 1..refine_levels adds the 41 offsets k*h/2**l, |k| <= 20, to every
    pole within 10h of the band, h the base spacing, keeping the nodes in the band:
    a pole just outside the band gets the same window, clipped to the band.
    The in-band poles join the base nodes and offsets before the one sort, so each is a node
    at every level.  Nodes under h*1e-9 apart merge into the first of their run, which a pole
    in the run then takes, and the band edges are written last: a pole within h*1e-9 of an
    edge sits on that edge node.  Levels past 29, under the merge spacing, are refused, as
    are fewer than 16 base points and non-integer counts (bools too).  The work is
    near-linear in the in-band poles, and the channel is evaluated once, at the final nodes.
    """
    for name, n in (("base_points", base_points), ("refine_levels", refine_levels)):
        if name == "base_points" and n is None:
            continue  # the grid sizes itself
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {n!r}")
    if base_points is not None and base_points < 16:
        raise ValueError("base_points must be at least 16")
    if not 0 <= refine_levels <= _MAX_REFINE_LEVELS:
        raise ValueError(f"refine_levels must be in [0, {_MAX_REFINE_LEVELS}]")
    lo, hi = band.lo, band.hi
    # a pole just outside the band reaches into it with its log singularity; the
    # query spans the window of the coarser grid, this one's or the 512-point one's,
    # and a pole beyond 10h of the band adds no node, as no offset reaches past 10h
    h = (hi - lo) / (min(base_points or DEFAULT_BASE_POINTS, DEFAULT_BASE_POINTS) - 1)
    centres = poles_in_interval(model, max(lo - 10 * h, 0.0), hi + 10 * h)
    poles = centres[(centres >= lo) & (centres <= hi)]
    base_points = base_points or max(DEFAULT_BASE_POINTS, _POINTS_PER_POLE * len(poles))
    h = (hi - lo) / (base_points - 1)
    # doubling is exact, so level l's even-k offsets repeat level l-1's bit for
    # bit: 41 + 20*(levels-1) distinct offsets, and no duplicate node to sort
    offsets = np.unique((h / 2.0 ** np.arange(1, refine_levels + 1))[:, None] * np.arange(-20, 21))
    extra = (centres[:, None] + offsets).ravel()
    extra = extra[(extra >= lo) & (extra <= hi)]
    nodes = np.concatenate([np.linspace(lo, hi, base_points), poles, extra])
    nodes.sort()
    del extra, offsets
    # drop near-duplicates, exact ones included, that would produce tiny weights;
    # each pole moves the node kept for its run onto itself exactly
    nodes = nodes[np.r_[True, np.diff(nodes) > h * 1e-9]]
    pole_idx = np.searchsorted(nodes, poles, "right") - 1
    nodes[pole_idx] = poles
    nodes[0], nodes[-1] = lo, hi
    weights = _trapezoid_weights(nodes)
    s = eval_reactances(model, nodes)
    for a in (nodes, weights, pole_idx, s.num_r, s.num_rt, s.denom):
        a.setflags(write=False)  # a write would change every later result on the grid
    return FrequencyGrid(nodes, weights, pole_idx, model, s, band)


def _coupled_profile(model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid):
    """alpha/beta, the coupled mask beta > 0 and beta on the grid, formed once per solver
    call; refuses another channel and one that couples at no node."""
    ratio, beta = _profile(model, rx, grid)
    coupled = beta > 0
    if not np.any(coupled):
        raise ValueError("channel has no coupling anywhere in the band")
    return ratio, coupled, beta


def _levels(profile, grid: FrequencyGrid, mus: np.ndarray, x: np.ndarray, tmp: np.ndarray):
    """The level step at a column of k multipliers, `mus` of shape (k, 1): the (k, n)
    support, x = s_it * beta per row (0 off the support), and C and P per row.

    Every grid-sized float goes into the work arrays `x` and `tmp`, both (k, n)
    and C-contiguous, which `tmp` leaves holding weights * x.  The solver call
    that allocates them reuses them for all its blocks, and no other call sees
    them.  A row is reduced on its own along the contiguous grid axis, by the
    pairwise sum numpy gives a 1-D array, and every other op is elementwise,
    so each row's C and P are those of a 1-row block at its multiplier, to the bit.
    """
    ratio, coupled, _ = profile
    support = ratio > mus
    support &= coupled
    x.fill(0.0)
    # exact near the level, where log2(ratio/mu) and 1/mu - 1/ratio lose digits
    np.subtract(ratio, mus, out=x, where=support)
    x /= mus
    capacity = _bits(grid.weights, x, out=tmp)  # log2(ratio / mu) = log2(1 + x)
    x /= np.add(x, 1, out=tmp)
    x /= mus  # 1/mu - 1/ratio = s_it * beta, as alpha = ratio * beta
    power = np.sum(np.multiply(grid.weights, x, out=tmp), axis=-1)
    return support, capacity, power


def _solve(profile, grid: FrequencyGrid, mu: float) -> WaterfillSolution:
    """The level step at mu as a 1-row block, and the density s_it = x / beta on its support."""
    x = np.empty((1, len(grid.nodes)))
    support, capacity, power = _levels(profile, grid, np.array([[mu]]), x, np.empty_like(x))
    np.divide(x, profile[2], out=x, where=support)
    return WaterfillSolution(mu, support[0], x[0], float(capacity[0]), float(power[0]))


def solve_for_mu(
    model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid, mu: float
) -> WaterfillSolution:
    """Water-filling allocation for a given Lagrange multiplier mu > 0."""
    if not 0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    return _solve(_coupled_profile(model, rx, grid), grid, mu)


def _water_floor(r: np.ndarray, w: np.ndarray, p_t: float) -> tuple[float, float]:
    """The smallest ratio r in the water-filling support at budget p_t, of nodes
    with ratios r and weights w (the grid's, in Hz), and the water
    level mu = W / (p_t + V) over that support.

    Newton in 1/mu: the level W / (p_t + V) of the candidates and the nodes
    known to be powered (W and V the sums of w and w/r) is a mediant of the
    true level and of the ratios of unpowered candidates, which lie at or
    below it, so the level never exceeds the true one.  Each pass drops the
    candidates at or below the level, none of them powered; a pass that
    drops none leaves exactly the support.  After two passes in a row that
    each keep over half the candidates, their median r_m is split off: if
    its join budget W_above / r_m - V_above (sums over it, the nodes above it
    and the known ones) is below p_t, it and every node above it are powered
    and become known, otherwise it and every node below it are dropped.  So
    the candidates halve at least every third step, O(n) work in all.  A
    pass whose level rounds above every candidate splits too, so the top
    node, whose join budget is 0, is always powered.  The last pass's level is
    mu, as its candidates and the known nodes are the support; when splits
    use up the candidates, the known nodes are.
    """
    known_w = known_v = 0.0
    floor = math.inf  # the smallest ratio known to be powered
    slow = 0  # passes in a row that kept over half the candidates
    while len(r):
        level = (known_w + np.sum(w)) / (p_t + known_v + np.sum(w / r))
        keep = r > level
        kept = np.count_nonzero(keep)
        if kept == len(r):
            return min(floor, float(np.min(r))), float(level)
        if kept:
            slow = slow + 1 if 2 * kept > len(r) else 0
            r = r[keep]
            w = w[keep]
            if slow < 2:
                continue
        slow, m = 0, len(r) // 2
        part = np.argpartition(r, m)
        r = r[part]
        w = w[part]
        del part
        above_w = known_w + np.sum(w[m:])
        above_v = known_v + np.sum(w[m:] / r[m:])
        if above_w / r[m] - above_v < p_t:
            known_w, known_v, floor = above_w, above_v, float(r[m])
            r, w = r[:m], w[:m]
        else:
            r, w = r[m + 1:], w[m + 1:]
    return floor, float(known_w / (p_t + known_v))


def solve_for_power(
    model: ChannelModel,
    rx: ReceiverParams,
    grid: FrequencyGrid,
    p_t: float,
) -> WaterfillSolution:
    """Invert the power budget to mu exactly, with no tolerance and no sort.

    `_water_floor` finds the support's smallest alpha/beta, r_k, by Newton
    steps on the water level guarded by median splits, and returns with it
    the level it ended on: mu = W / (p_t + V), W and V the sums of w and w/r
    over the support (w the grid's weights, in Hz).
    Budgets below about eps*w/r of the top node are not resolved: the
    returned `power`, that node's smallest representable power, exceeds p_t.
    """
    if not 0 < p_t < math.inf:
        raise ValueError("p_t must be positive and finite")
    ratio, coupled, _ = profile = _coupled_profile(model, rx, grid)
    r_k, mu = _water_floor(ratio[coupled], grid.weights[coupled], p_t)
    # mu < r_k holds exactly; keep roundoff from emptying the support
    mu = min(mu, float(np.nextafter(r_k, 0)))
    return _solve(profile, grid, mu)


def sweep(model: ChannelModel, rx: ReceiverParams, grid: FrequencyGrid) -> SweepResult:
    """The capacity-vs-power cross-plot: 50 logarithmically spaced multipliers,
    descending from just below the maximum of alpha/beta (the top node powered)
    to its minimum, then the full-support endpoint, one `SweepPoint` each.

    The endpoint is the largest multiplier that powers the whole band, the
    float below the minimum of alpha/beta over the coupled nodes
    (`solve_for_power`'s clamp).  Multipliers at or below it are dropped: on a
    flat ratio profile (zero temperature) the range starts below it.  A row
    keeps no grid-sized array; for a level's density, call `solve_for_mu` at
    its multiplier.

    The levels are stepped in blocks of max(1, _BLOCK // n) rows on n nodes, as
    `_levels` steps, over two (rows, n) work arrays that this call allocates and
    reuses: a block costs a few numpy calls whatever its rows, and no level
    faults in a fresh grid-sized array.  `_BLOCK`, 8,192 values, was the fastest
    size timed on the 633- and 1,197-node reference grids: one row per block
    took 2.8 times as long on the LC, and blocks past glibc's 128 kB mmap
    threshold fault their work arrays in anew on every call.  The rows and the
    solvers share that one level step, a solver as a 1-row block, and each row
    is summed on its own, so a row's capacity and power are `solve_for_mu`'s to
    the bit.
    """
    ratio, coupled, _ = profile = _coupled_profile(model, rx, grid)
    r_min = float(np.min(ratio, where=coupled, initial=math.inf))
    r_max = float(np.max(ratio, where=coupled, initial=-math.inf))
    mu_full = float(np.nextafter(r_min, 0))
    mus = np.geomspace(r_max * (1 - 1e-9), r_min, 50)
    levels = [*(mu for mu in mus.tolist() if mu > mu_full), mu_full]
    rows = max(1, _BLOCK // len(ratio))
    x = np.empty((min(rows, len(levels)), len(ratio)))
    tmp = np.empty_like(x)
    points = []
    for i in range(0, len(levels), rows):
        block = levels[i:i + rows]
        k = len(block)
        support, capacity, power = _levels(profile, grid, np.array(block)[:, None], x[:k],
                                           tmp[:k])
        points += map(SweepPoint, block, power.tolist(), capacity.tolist(),
                      support.all(axis=-1).tolist())
    return SweepResult(points[:-1], points[-1])
