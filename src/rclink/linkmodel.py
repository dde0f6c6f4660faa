"""Receiver circuit model, noise functionals, and closed-form capacity bounds.

The transmit port is driven by a current source; the receive port is
terminated in a load resistor whose voltage is read by an infinite-impedance
amplifier.  Noise enters as Johnson noise of the resistor (density
2*k_B*T*R_L) and white amplifier noise (density Q_A).  All per-frequency
functionals are computed from the rational reactance representation so they
stay finite on the channel poles.  alpha, beta and alpha/beta are read from
one per-node profile, which also marks where the channel couples; the module
holds the one trapezoid rule, also used by `waterfill`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ChannelModel, ReactanceSample, eval_reactances

__all__ = [
    "ReceiverParams",
    "Band",
    "OutputPsd",
    "transfer_magnitude",
    "alpha",
    "beta",
    "ratio_alpha_beta",
    "output_psd",
    "capacity_upper_bound",
    "capacity_lower_bound",
]

# matches the constant used for the published regression numbers; the 2019
# SI-exact value 1.380649e-23 shifts results by well under a percent
BOLTZMANN_DEFAULT = 1.38e-23


@dataclass(frozen=True)
class ReceiverParams:
    """Load resistor, amplifier, and thermal-noise parameters."""

    load_resistance: float  # ohm
    amp_gain: float  # dimensionless voltage gain
    amp_noise_density: float  # V^2/Hz
    temperature: float  # K
    boltzmann: float = BOLTZMANN_DEFAULT  # J/K

    def __post_init__(self):
        if not 0 < self.load_resistance < math.inf:
            raise ValueError("load_resistance must be positive and finite")
        if not 0 < self.amp_gain < math.inf:
            raise ValueError("amp_gain must be positive and finite")
        if not (0 <= self.amp_noise_density < math.inf and 0 <= self.temperature < math.inf):
            raise ValueError("noise density and temperature must be nonnegative and finite")
        if not 0 < self.boltzmann < math.inf:
            raise ValueError("boltzmann must be positive and finite")
        if self.amp_noise_density == 0 and self.temperature == 0:
            raise ValueError("degenerate noiseless receiver (T=0 and Q_A=0)")


@dataclass(frozen=True)
class Band:
    """Positive-frequency band [carrier - pi*B, carrier + pi*B] in rad/s."""

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


def _sample(model, omega) -> ReactanceSample:
    if isinstance(model, ReactanceSample):
        return model
    return eval_reactances(model, omega)


def _noise(s: ReactanceSample, rx: ReceiverParams):
    """Load term num_r^2 + R_L^2 denom^2 and Johnson term 2 g^2 k T R_L num_r^2."""
    rl = rx.load_resistance
    load = s.num_r**2 + rl**2 * s.denom**2
    johnson = 2 * rx.amp_gain**2 * rx.boltzmann * rx.temperature * rl * s.num_r**2
    return load, johnson


def transfer_magnitude(model: ChannelModel, rx: ReceiverParams, omega):
    """|V_R / I_T| = R_L |Z_RT| / |Z_R + R_L| in ohms, finite on poles."""
    s = _sample(model, omega)
    load, _ = _noise(s, rx)
    return rx.load_resistance * np.abs(s.num_rt) / np.sqrt(load)


class _Profile(NamedTuple):
    """alpha, beta and alpha/beta at every node, and where the channel couples."""

    alpha: np.ndarray | float
    beta: np.ndarray | float
    ratio: np.ndarray | float
    coupled: np.ndarray | bool  # False where the mutual reactance vanishes


def _profile(model, rx: ReceiverParams, omega) -> _Profile:
    """One reactance sample and one noise pass, each term dropped once read."""
    s = _sample(model, omega)
    load, den = _noise(s, rx)
    coupled, rt2 = s.num_rt != 0, s.num_rt**2
    del s
    den += rx.amp_noise_density * load  # Johnson plus amplifier noise
    b = 2 * rx.load_resistance * rt2 / load
    # multiplied-out arrangement: no cancellation off-pole, finite on poles
    r = (rx.amp_gain**2 * rx.load_resistance / 2) * load / den
    del load
    a = rx.amp_gain**2 * rt2 * rx.load_resistance**2 / den
    return _Profile(a, b, r, coupled)


def alpha(model: ChannelModel, rx: ReceiverParams, omega):
    """SNR per unit transmit-current spectral density, 1/(A^2 s)."""
    return _profile(model, rx, omega).alpha


def beta(model: ChannelModel, rx: ReceiverParams, omega):
    """Transmit power per unit transmit-current spectral density, ohms."""
    return _profile(model, rx, omega).beta


def ratio_alpha_beta(model: ChannelModel, rx: ReceiverParams, omega):
    """alpha/beta computed without intermediate infinities.

    The ratio is independent of the mutual reactance, so it remains defined
    (by continuity) even where Z_RT'' = 0 and alpha/beta itself is 0/0.
    Every channel pole is a local minimum of this quantity.
    """
    return _profile(model, rx, omega).ratio


def output_psd(model: ChannelModel, rx: ReceiverParams, omega, s_it) -> OutputPsd:
    """Amplifier-output spectral density for transmit density s_it (A^2/Hz)."""
    if np.any(np.asarray(s_it) < 0):
        raise ValueError("s_it must be nonnegative")
    s = _sample(model, omega)
    load, johnson = _noise(s, rx)
    signal = rx.amp_gain**2 * s.num_rt**2 * rx.load_resistance**2 * s_it / load
    qa = rx.amp_noise_density
    return OutputPsd(signal, johnson / load, qa * np.ones_like(load) if np.ndim(load) else qa)


def capacity_upper_bound(rx: ReceiverParams, band: Band, p_t: float) -> float:
    """Channel-independent zero-temperature capacity bound, bits/s.

    Without amplifier noise the bound is infinite for any positive budget.
    """
    if not 0 <= p_t < math.inf:
        raise ValueError("p_t must be nonnegative and finite")
    if rx.amp_noise_density == 0:
        return math.inf if p_t > 0 else 0.0
    b = band.bandwidth
    snr = p_t * rx.amp_gain**2 * rx.load_resistance / (2 * b * rx.amp_noise_density)
    return b * math.log2(1 + snr)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.empty_like(nodes)
    w[1:-1] = (nodes[2:] - nodes[:-2]) / 2
    w[0] = (nodes[1] - nodes[0]) / 2
    w[-1] = (nodes[-1] - nodes[-2]) / 2
    return w


def capacity_lower_bound(
    model: ChannelModel,
    rx: ReceiverParams,
    band: Band,
    p_t: float,
    grid,
) -> float:
    """Capacity of the flat-SNR (zero-temperature-optimal) transmit density.

    Integrates log2[1 + p_t * (alpha/beta)(omega) / B] over the coupled nodes
    of `grid` (see waterfill.build_grid); a channel coupling nowhere gives 0.
    With T=0 this reduces exactly to the upper bound.  Raises ValueError when
    every other node (the last one included) moves the result by over 1e-3.
    """
    if not 0 <= p_t < math.inf:
        raise ValueError("p_t must be nonnegative and finite")
    nodes, weights = np.asarray(grid.nodes), np.asarray(grid.weights)
    ratio, coupled = _profile(model, rx, nodes)[2:]
    vals = np.where(coupled, np.log2(1 + p_t * ratio / band.bandwidth), 0.0)
    result = float(np.sum(weights * vals) / (2 * math.pi))
    half = np.r_[0 : len(nodes) - 1 : 2, len(nodes) - 1]
    coarse = float(np.sum(_trapezoid_weights(nodes[half]) * vals[half]) / (2 * math.pi))
    if result != 0 and abs(result - coarse) > 1e-3 * abs(result):
        raise ValueError(
            "frequency grid too coarse for the lower-bound integral "
            f"(refinement changes result by {abs(result - coarse) / abs(result):.2e})"
        )
    return result
