"""Receiver circuit model, noise functionals, and closed-form capacity bounds.

The transmit port is driven by a current source; the receive port is
terminated in a load resistor whose voltage is read by an infinite-impedance
amplifier.  Noise enters as Johnson noise of the resistor (density
2*k_B*T*R_L) and white amplifier noise (density Q_A).  All per-frequency
functionals are computed from the rational reactance representation so they
stay finite on the channel poles, and take a channel model, never a bare
sample, at omega or on a `FrequencyGrid` built for it, whose reactances they
read.  Each is a load share, f = num_r^2/load or t = num_rt^2/load with
load = num_r^2 + (R_L denom)^2, times receiver constants, and none subtracts:
one profile forms alpha/beta = 1/(4kT f + 2Q_A/(g^2 R_L)) and beta = 2 R_L t,
and the channel couples where beta > 0.  The module holds the grid type,
the one trapezoid rule and the one capacity sum over grid nodes, all also used
by `waterfill`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .channels import ChannelModel, ReactanceSample, eval_reactances

__all__ = [
    "ReceiverParams",
    "Band",
    "OutputPsd",
    "FrequencyGrid",
    "transfer_magnitude",
    "alpha",
    "beta",
    "ratio_alpha_beta",
    "output_psd",
    "capacity_upper_bound",
    "capacity_lower_bound",
]

# k_B in J/K: matches the constant used for the published regression numbers;
# the 2019 SI-exact value 1.380649e-23 shifts results by well under a percent.
# Only k_B*T is read, so a run at the SI value scales T by 1.380649/1.38.
BOLTZMANN = 1.38e-23


@dataclass(frozen=True)
class ReceiverParams:
    """Load resistor, amplifier, and thermal-noise parameters."""

    keys: ClassVar[tuple[str, ...]] = ("load_resistance_ohm", "amp_gain", "amp_noise_v2_per_hz",
                                       "temperature_k")

    load_resistance: float  # ohm
    amp_gain: float  # dimensionless voltage gain
    amp_noise_density: float  # V^2/Hz
    temperature: float  # K

    def __post_init__(self):
        for name in ("load_resistance", "amp_gain"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        rl, g, q_a = self.load_resistance, self.amp_gain, self.amp_noise_density
        if rl * rl == math.inf:  # the load share squares R_L*denom
            raise ValueError(f"load_resistance must have a finite square, got {rl!r}")
        if not (0 <= q_a < math.inf and 0 <= self.temperature < math.inf):
            raise ValueError("noise density and temperature must be nonnegative and finite")
        if q_a == 0 and self.temperature == 0:
            raise ValueError("degenerate noiseless receiver (T=0 and Q_A=0)")
        floor = _amp_floor(self)
        ceiling = 1 / floor if floor else math.inf  # the largest alpha/beta
        if g * g * rl == math.inf or q_a > 0 and ceiling == math.inf:
            raise ValueError("the SNR ceiling g*g*R_L/(2*Q_A) and g*g*R_L must be finite, "
                             f"got amp_gain={g!r}, load_resistance={rl!r}")


@dataclass(frozen=True)
class Band:
    """Positive-frequency band [carrier - pi*B, carrier + pi*B] in rad/s."""

    keys: ClassVar[tuple[str, ...]] = ("carrier_rad_s", "bandwidth_hz")

    carrier: float  # rad/s
    bandwidth: float  # Hz

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not 0 < self.lo < self.hi < math.inf:
            raise ValueError("band must stay in positive finite frequencies")

    @property
    def lo(self) -> float:
        return self.carrier - math.pi * self.bandwidth

    @property
    def hi(self) -> float:
        return self.carrier + math.pi * self.bandwidth


class OutputPsd(NamedTuple):
    """Amplifier-output spectral density split into its three terms, V^2/Hz."""

    signal: np.ndarray | float
    johnson: np.ndarray | float
    amplifier: np.ndarray | float

    @property
    def total(self):
        return self.signal + self.johnson + self.amplifier


@dataclass(frozen=True)
class FrequencyGrid:
    """Trapezoidal quadrature nodes over a band, refined around channel poles.

    The grid belongs to the channel and the band it was built for: `sample` is
    eval_reactances(channel, nodes), that channel's receive-side reactances at
    the nodes.  Every array of the grid and of its sample is read-only.
    """

    nodes: np.ndarray  # rad/s, strictly increasing
    weights: np.ndarray  # Hz: trapezoid weights of d omega / 2 pi, summing to the bandwidth
    pole_nodes: np.ndarray  # per in-band pole, its node; within h*1e-9 of an edge, the edge node
    channel: ChannelModel  # the model the grid was built for
    sample: ReactanceSample  # its receive-side reactances at the nodes
    band: Band  # the band the nodes span


def _sample(model, omega) -> ReactanceSample:
    """`model`'s reactances at omega, or those a grid built for `model` carries.
    A bare sample is refused: at any omega it would answer at its own nodes."""
    if isinstance(model, ReactanceSample):
        raise ValueError("a reactance sample is not a channel model; pass the model and omega")
    if isinstance(omega, FrequencyGrid):
        if model != omega.channel:
            raise ValueError("grid was built for another channel")
        return omega.sample
    return eval_reactances(model, omega)


def _amp_floor(rx: ReceiverParams) -> float:
    """2 Q_A/(g g R_L): 1/(alpha/beta) where the Johnson share is 0."""
    return 2 * rx.amp_noise_density / (rx.amp_gain * rx.amp_gain * rx.load_resistance)


def _shares(model, rx: ReceiverParams, omega):
    """(f, t) of `model` at omega or on its grid: the load shares f = num_r^2/load and
    t = num_rt^2/load, load = num_r^2 + (R_L denom)^2, both fresh."""
    s = _sample(model, omega)
    load = rx.load_resistance * s.denom
    load *= load
    f = np.square(s.num_r)
    load += f
    f /= load
    t = np.square(s.num_rt)
    t /= load
    return f, t


def _profile(model, rx: ReceiverParams, omega):
    """(alpha/beta, beta) = (1/(4kT f + 2Q_A/(g g R_L)), 2 R_L t) of `model` at omega or
    on its grid, both fresh; the channel couples where beta > 0, not where it underflows."""
    f, t = _shares(model, rx, omega)
    f *= 4 * BOLTZMANN * rx.temperature
    f += _amp_floor(rx)
    t *= 2 * rx.load_resistance
    return np.reciprocal(f, out=f if np.ndim(f) else None), t


def transfer_magnitude(model: ChannelModel, rx: ReceiverParams, omega):
    """|V_R / I_T| = R_L |Z_RT| / |Z_R + R_L| = R_L sqrt(t) in ohms, finite on poles."""
    return rx.load_resistance * np.sqrt(_shares(model, rx, omega)[1])


def alpha(model: ChannelModel, rx: ReceiverParams, omega):
    """SNR per unit transmit-current spectral density, 1/(A^2 s), as ratio * beta."""
    return np.multiply(*_profile(model, rx, omega))


def beta(model: ChannelModel, rx: ReceiverParams, omega):
    """Transmit power per unit transmit-current spectral density, 2 R_L t, in ohms."""
    return _profile(model, rx, omega)[1]


def ratio_alpha_beta(model: ChannelModel, rx: ReceiverParams, omega):
    """alpha/beta computed without intermediate infinities.

    The ratio is independent of the mutual reactance, so it remains defined
    (by continuity) even where Z_RT'' = 0 and alpha/beta itself is 0/0.
    Every pole that the receive side sees (a pole of Z_R) is a local minimum
    of this quantity; a pole cancelled in Z_R, such as an even mode of a line
    whose receive tap sits at its middle, can be a local maximum.
    """
    return _profile(model, rx, omega)[0]


def output_psd(model: ChannelModel, rx: ReceiverParams, omega, s_it) -> OutputPsd:
    """Amplifier-output spectral density for transmit density s_it (A^2/Hz); refuses a
    negative, NaN or infinite density."""
    if not np.all((0 <= np.asarray(s_it)) & (np.asarray(s_it) < math.inf)):
        raise ValueError("s_it must be nonnegative and finite")
    f, t = _shares(model, rx, omega)
    ggr = rx.amp_gain * rx.amp_gain * rx.load_resistance
    t *= rx.load_resistance  # beta/2 first: g*g*R_L*R_L can overflow
    f *= 2 * BOLTZMANN * rx.temperature * ggr
    return OutputPsd(t * s_it * ggr, f, rx.amp_noise_density * np.ones_like(f))


def capacity_upper_bound(rx: ReceiverParams, band: Band, p_t: float) -> float:
    """Channel-independent zero-temperature capacity bound, bits/s.

    Without amplifier noise the bound is infinite for any positive budget.
    """
    if not 0 <= p_t < math.inf:
        raise ValueError("p_t must be nonnegative and finite")
    if rx.amp_noise_density == 0:
        return math.inf if p_t > 0 else 0.0
    b = band.bandwidth
    ceiling = 1 / _amp_floor(rx)
    snr = ceiling * (p_t / b)  # the flat SNR at zero temperature
    # past the largest float, log1p(snr) is log(snr) to the last bit
    nats = math.log1p(snr) if snr < math.inf else math.log(ceiling) + math.log(p_t / b)
    return b * nats / math.log(2)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the measure d omega / 2 pi at `nodes` (rad/s), in Hz."""
    w = np.empty_like(nodes)
    np.subtract(nodes[2:], nodes[:-2], out=w[1:-1])
    w[1:-1] /= 4 * math.pi
    w[0] = (nodes[1] - nodes[0]) / (4 * math.pi)
    w[-1] = (nodes[-1] - nodes[-2]) / (4 * math.pi)
    return w


def _bits(w: np.ndarray, nats: np.ndarray, out: np.ndarray | None = None):
    """sum(w * nats) / ln 2 over the last axis, nats = log1p(snr) per node: bits/s per row for
    weights w in Hz, the one capacity sum over grid nodes.  w * nats is written into `out`
    when one is given, which may be `nats` itself."""
    out = np.multiply(nats, w, out=out)
    return np.sum(out, axis=-1) / math.log(2)


def capacity_lower_bound(
    model: ChannelModel,
    rx: ReceiverParams,
    band: Band,
    p_t: float,
    grid: FrequencyGrid,
) -> float:
    """Capacity of the flat-SNR (zero-temperature-optimal) transmit density.

    Integrates log1p(p_t * (alpha/beta)(omega) / B) / ln 2 over the coupled nodes
    of `grid` (see waterfill.build_grid), those where beta > 0, from the
    reactances the grid carries; a grid built for another channel or another
    band is refused, and a channel coupling nowhere gives 0.
    With T=0 this reduces exactly to the upper bound.  On one grid it is at most C up to
    roundoff: its s_it * beta = p_t/B on the coupled nodes spends p_t * (coupled weight)/B
    <= p_t, so water-filling on the same nodes does at least as well (where the flat
    density is optimal, the two agree to a few ulps either way).  Raises ValueError when
    every other node (the last one included) moves the result by over 1e-3; that check
    reads the same log1p array as the full sum, taken once, in place over the SNR.
    """
    if not 0 <= p_t < math.inf:
        raise ValueError("p_t must be nonnegative and finite")
    if band != grid.band:
        raise ValueError("grid was built for another band")
    snr, b = _profile(model, rx, grid)
    snr *= p_t / band.bandwidth
    np.copyto(snr, 0.0, where=~(b > 0))
    nats = np.log1p(snr, out=snr)
    result = float(_bits(grid.weights, nats, out=b))
    del b
    half = np.r_[0 : len(nats) - 1 : 2, len(nats) - 1]
    coarse_nats = nats[half]
    coarse = float(_bits(_trapezoid_weights(grid.nodes[half]), coarse_nats, out=coarse_nats))
    if result != 0 and abs(result - coarse) > 1e-3 * abs(result):
        raise ValueError(
            "frequency grid too coarse for the lower-bound integral "
            f"(refinement changes result by {abs(result - coarse) / abs(result):.2e})"
        )
    return result
