"""Lossless two-port channel models.

Three channels are supported: a parallel LC circuit, an open-ended
transmission-line segment with ports at the two ends, and a
shorted-at-both-ends line tapped at interior transmit/receive points.
All three have purely imaginary impedance matrices whose entries share a
common denominator that vanishes at the resonance frequencies.  Entries
are therefore represented as (numerator, denominator) pairs so that
evaluation stays finite on the poles and pole limits become plain
arithmetic downstream.  Only the receive-side entries Z_R and Z_RT are
evaluated: the transmit port is driven by a current source, so Z_T enters
no functional of the link.

Each class owns its config name (`kind`), the JSON keys of its fields in
field order (`keys`), `reactances(omega)` and `poles(lo, hi)`; a new kind is
one more class in `CHANNEL_KINDS`.  `ReceiverParams` and `Band` declare
`keys` the same way, and `config` reads each of these sections by them.
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
    """Rational representation of the receive-side impedance entries at omega.

    The reactances are recovered as Z_R'' = num_r/denom and Z_RT'' =
    num_rt/denom wherever denom != 0.  All fields are finite at every real
    omega, pole frequencies included.  Fields follow the shape of omega: a
    scalar omega gives numpy scalars, the bits of the same omega in an array.
    """

    num_r: np.ndarray | float  # ohm
    num_rt: np.ndarray | float  # ohm
    denom: np.ndarray | float  # dimensionless


def _field(buf: np.ndarray):
    """A buffer as a sample field: the numpy scalar a 0-d buffer holds, as at a scalar omega
    every field is one."""
    return buf if buf.ndim else buf[()]


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
        denom = 1.0 - self.inductance * self.capacitance * np.square(omega)
        # scaled to |denom| <= 1, as on the lines, so that (R_L denom)^2 is finite
        # wherever R_L^2 is, above sqrt(2) times the resonance too
        scale = np.maximum(np.abs(denom), 1.0)
        num /= scale
        denom /= scale
        return ReactanceSample(num, num, denom)

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
        # the index range is widened against roundoff in lo/step and hi/step, and
        # any pole that widening reaches outside [lo, hi] is dropped
        l_min = max(math.ceil(lo / step - 1e-9), 0)
        l_max = math.floor(hi / step + 1e-9)
        poles = step * np.arange(l_min, l_max + 1, dtype=float)
        return poles[(lo <= poles) & (poles <= hi)]


@dataclass(frozen=True)
class TLineOpenEnds(_Line):
    """Open-circuited line segment with ports at x=0 and x=length."""

    kind: ClassVar[str] = "tline_open_ends"
    keys: ClassVar[tuple[str, ...]] = ("char_impedance_ohm", "wave_speed_m_s", "length_m")

    def reactances(self, omega) -> ReactanceSample:
        z0 = self.char_impedance
        # entries of the open-line matrix carry a -1/sin(kL) prefactor;
        # the -1 is folded into the numerators.  The phase kL and then its
        # cosine go into one buffer, as on the shorted line
        ph = np.asarray(omega * self.length)
        ph /= self.wave_speed
        denom = np.sin(ph)
        np.cos(ph, out=ph)
        ph *= -z0
        return ReactanceSample(_field(ph), _field(np.full_like(ph, -z0)), denom)


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
        a, b = sorted((self.x_transmit, self.x_receive))
        z0, length = self.char_impedance, self.length
        # product form z0 sin(k p) sin(k (L - q)) for taps p <= q: exactly 0 for
        # a tap on a shorted end, and exactly symmetric in the two taps.  Each
        # phase k x and its sine go into the one buffer `ph`, denom last, so a
        # call allocates k, ph and the two numerators and no other array
        ph = np.empty_like(k)

        def sine(x):  # sin(k x), in `ph`
            return _field(np.sin(np.multiply(k, x, out=ph), out=ph))

        num_rt = z0 * sine(a)
        if self.x_receive < self.x_transmit:
            num_r = num_rt * sine(length - a)
            num_rt *= sine(length - b)
        else:
            num_r = z0 * sine(b)
            sb = sine(length - b)
            num_r *= sb
            num_rt *= sb
        return ReactanceSample(num_r, num_rt, sine(length))


ChannelModel = Union[LcParallel, TLineOpenEnds, TLineShortedTapped]

CHANNEL_KINDS = {cls.kind: cls for cls in (LcParallel, TLineOpenEnds, TLineShortedTapped)}


def eval_reactances(model: ChannelModel, omega) -> ReactanceSample:
    """Evaluate the receive-side reactance entries of `model` at `omega` (rad/s).

    Accepts real scalars and arrays, a scalar run as a 0-d array; total on the real line.
    Refuses complex and non-finite omega, which every per-node functional reads
    through this one point.
    """
    if np.iscomplexobj(omega):
        raise ValueError("omega must be real")
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("omega must be finite")
    return model.reactances(omega)


def poles_in_interval(model: ChannelModel, lo: float, hi: float) -> np.ndarray:
    """Exactly the real poles of `model` in [lo, hi], sorted.

    LC has the single positive pole 1/sqrt(LC); the line models have poles at
    pi*c0*l/length for integer l >= 0 (omega=0 counts as a pole for the lines
    but not for LC, where the numerator vanishes there too).
    """
    if not (0 <= lo < hi < math.inf):
        raise ValueError("require 0 <= lo < hi < inf")
    return model.poles(lo, hi)
