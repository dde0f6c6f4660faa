"""Lossless two-port channel models.

Three channels are supported: a parallel LC circuit, an open-ended
transmission-line segment with ports at the two ends, and a
shorted-at-both-ends line tapped at interior transmit/receive points.
All three have purely imaginary impedance matrices whose entries share a
common denominator that vanishes at the resonance frequencies.  Entries
are therefore represented as (numerator, denominator) pairs so that
evaluation stays finite on the poles and pole limits become plain
arithmetic downstream.

Each class owns its config name (`kind`), the JSON keys of its fields in
field order (`keys`), `reactances(omega)` and `poles(lo, hi)`; a new kind is
one more class in `CHANNEL_KINDS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "LcParallel",
    "TLineOpenEnds",
    "TLineShortedTapped",
    "ChannelModel",
    "CHANNEL_KINDS",
    "ReactanceSample",
    "eval_reactances",
    "poles_in_interval",
]


@dataclass(frozen=True)
class ReactanceSample:
    """Rational representation of the imaginary impedance entries at omega.

    The reactances are recovered as Z_T'' = num_t/denom, Z_R'' = num_r/denom,
    Z_RT'' = num_rt/denom wherever denom != 0.  All fields are finite at every
    real omega, pole frequencies included.  Fields may be scalars or arrays,
    following the shape of omega.
    """

    num_t: np.ndarray | float  # ohm
    num_r: np.ndarray | float  # ohm
    num_rt: np.ndarray | float  # ohm
    denom: np.ndarray | float  # dimensionless


@dataclass(frozen=True)
class LcParallel:
    """Parallel inductor-capacitor two-port (both ports across the tank)."""

    kind: ClassVar[str] = "lc_parallel"
    keys: ClassVar[tuple[str, ...]] = ("inductance_h", "capacitance_f")

    inductance: float  # H
    capacitance: float  # F

    def __post_init__(self):
        if not (0 < self.inductance < math.inf and 0 < self.capacitance < math.inf):
            raise ValueError("inductance and capacitance must be positive and finite")

    @property
    def resonance(self) -> float:
        """Resonant angular frequency 1/sqrt(LC), rad/s."""
        return 1.0 / math.sqrt(self.inductance * self.capacitance)

    def reactances(self, omega) -> ReactanceSample:
        num = omega * self.inductance
        denom = 1.0 - self.inductance * self.capacitance * omega**2
        return ReactanceSample(num, num, num, denom)

    def poles(self, lo: float, hi: float) -> np.ndarray:
        w0 = self.resonance
        return np.array([w0]) if lo <= w0 <= hi else np.array([])


@dataclass(frozen=True)
class _Line:
    """Lossless line segment; its poles sit at pi*c0*l/length for integer l >= 0."""

    char_impedance: float  # ohm
    wave_speed: float  # m/s
    length: float  # m

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.char_impedance, self.wave_speed, self.length)):
            raise ValueError("char_impedance, wave_speed, length must be positive and finite")

    def poles(self, lo: float, hi: float) -> np.ndarray:
        step = math.pi * self.wave_speed / self.length
        # tolerance absorbs roundoff at interval endpoints
        l_min = math.ceil(lo / step - 1e-9)
        l_max = math.floor(hi / step + 1e-9)
        l_min = max(l_min, 0)
        if l_max < l_min:
            return np.array([])
        return step * np.arange(l_min, l_max + 1, dtype=float)


@dataclass(frozen=True)
class TLineOpenEnds(_Line):
    """Open-circuited line segment with ports at x=0 and x=length."""

    kind: ClassVar[str] = "tline_open_ends"
    keys: ClassVar[tuple[str, ...]] = ("char_impedance_ohm", "wave_speed_m_s", "length_m")

    def reactances(self, omega) -> ReactanceSample:
        kl = omega * self.length / self.wave_speed
        z0 = self.char_impedance
        # entries of the open-line matrix carry a -1/sin(kL) prefactor;
        # the -1 is folded into the numerators
        denom = np.sin(kl)
        num_diag = -z0 * np.cos(kl)
        num_off = -z0 * np.ones_like(denom) if np.ndim(kl) else -z0
        return ReactanceSample(num_diag, num_diag, num_off, denom)


@dataclass(frozen=True)
class TLineShortedTapped(_Line):
    """Line shorted at both ends, tapped at x_transmit and x_receive."""

    kind: ClassVar[str] = "tline_shorted_tapped"
    keys: ClassVar[tuple[str, ...]] = (
        "char_impedance_ohm", "wave_speed_m_s", "length_m", "x_transmit_m", "x_receive_m",
    )

    x_transmit: float  # m
    x_receive: float  # m

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.x_transmit <= self.length):
            raise ValueError("x_transmit must lie in [0, length]")
        if not (0.0 <= self.x_receive <= self.length):
            raise ValueError("x_receive must lie in [0, length]")

    def reactances(self, omega) -> ReactanceSample:
        k = omega / self.wave_speed
        z0, length = self.char_impedance, self.length
        xt, xr = self.x_transmit, self.x_receive

        # product form z0 sin(k a) sin(k (L - b)) for taps a <= b: exactly 0 for
        # a tap on a shorted end, and exactly symmetric in the two taps
        def num(a, b):
            return z0 * np.sin(k * a) * np.sin(k * (length - b))

        return ReactanceSample(num(xt, xt), num(xr, xr), num(min(xt, xr), max(xt, xr)),
                               np.sin(k * length))


ChannelModel = Union[LcParallel, TLineOpenEnds, TLineShortedTapped]

CHANNEL_KINDS = {cls.kind: cls for cls in (LcParallel, TLineOpenEnds, TLineShortedTapped)}


def eval_reactances(model: ChannelModel, omega) -> ReactanceSample:
    """Evaluate the three reactance entries of `model` at `omega` (rad/s).

    Accepts a scalar or ndarray of real frequencies; total on the real line.
    Refuses complex and non-finite omega, which every per-node functional reads
    through this one point.
    """
    if np.iscomplexobj(omega):
        raise ValueError("omega must be real")
    omega = np.asarray(omega, dtype=float) if np.ndim(omega) else float(omega)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    return model.reactances(omega)


def poles_in_interval(model: ChannelModel, lo: float, hi: float) -> np.ndarray:
    """All real pole frequencies of `model` inside [lo, hi], sorted ascending.

    LC has the single positive pole 1/sqrt(LC); the line models have poles at
    pi*c0*l/length for integer l >= 0 (omega=0 counts as a pole for the lines
    but not for LC, where the numerator vanishes there too).
    """
    if not (0 <= lo < hi):
        raise ValueError("require 0 <= lo < hi")
    return model.poles(lo, hi)
