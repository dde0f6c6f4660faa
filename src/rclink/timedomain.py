"""Bounce-series oracles for the channels' reactances at complex frequencies.

The line channels admit time-domain solutions as trains of reflected
impulses; their Fourier transforms are geometric series that converge for
Im(omega) < 0.  Evaluating truncated series at complex frequencies in the
region of convergence checks each channel's own `reactances`, the code the
solvers run, continued off the real axis, without discretizing delta
functions.  Each series is its first terms times the train sum_{m<n} q^m,
never summed through the geometric closed form (1 - q^n)/(1 - q), which would
tie the oracle to the closed form it checks.  Over the binary digits of n,
the exponent law makes each q^m a product of factors q^(2^l), and the
distributive law makes the train a sum of one block per set bit of n, each
block a product of factors 1 + q^(2^l) (`_train`): O(log n) time and O(1)
memory, not O(n), with every q^(2^l) taken from its own exact exponent.  The
LC channel, whose impulse response is delta-free, gets a direct time-integral
check instead, its trapezoid sum formed from two trains.  `oracle_checks` runs
every comparison at fixed geometries, with one `reactances` call per geometry,
and yields one (name, ok, detail) record per check, with `ok` a plain bool;
`rclink verify` prints them.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import replace

import numpy as np

from .channels import LcParallel, TLineOpenEnds, TLineShortedTapped, eval_reactances

__all__ = [
    "open_line_series_vi",
    "shorted_line_series_v",
    "lc_transfer_from_impulse",
    "oracle_checks",
]


def _require_lower_half(omega: complex):
    if not (math.isfinite(omega.real) and -math.inf < omega.imag < 0):
        raise ValueError("series converge only for finite omega with Im(omega) < 0")


def _require_series_args(model, omega: complex, x: float, terms: int):
    _require_lower_half(omega)
    if not 0.0 <= x <= model.length:
        raise ValueError("x must lie in [0, length]")
    if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)) or terms < 1:
        raise ValueError("terms must be an int of at least 1")


def _train(phase: complex, n: int) -> complex:
    """sum_{m<n} exp(-1j*phase*m) over the binary digits of n, lowest first.

    With q_l = exp(-1j*phase*2^l), the full-block sum S_l = sum_{r<2^l} q^r grows
    as S_{l+1} = S_l*(1 + q_l).  Each set bit l adds the terms m = s + r, r < 2^l,
    as shift*S_l, where s counts the terms already summed and shift = q^s, and then
    multiplies shift by q_l.  Each q_l comes from its own exponent, a power-of-two
    multiple of -1j*phase and so exact, never by repeated squaring: O(log n) time
    and O(1) memory.  Near q_l = -1, where 1 + Re(q_l) cancels, the real part of
    1 + q_l is taken as -expm1(x) + 2*exp(x)*cos(y/2)^2 with x + iy the exponent,
    two terms >= 0 for Im(phase) <= 0, so every factor keeps its relative accuracy.
    """
    n = operator.index(n)
    exponent = -1j * phase
    total, shift, block = 0j, 1 + 0j, 1 + 0j
    for bit in range(n.bit_length()):
        q = cmath.exp(exponent)
        if q == 0:  # so is every later q_l: block is final, shift 0 after one more bit
            return total + shift * block
        if n >> bit & 1:
            total += shift * block
            shift *= q
        factor = 1 + q
        if factor.real < 1 / 64:
            x, c = exponent.real, math.cos(exponent.imag / 2)
            factor = complex(2 * math.exp(x) * c * c - math.expm1(x), q.imag)
        block *= factor
        exponent *= 2
    return total


def open_line_series_vi(
    model: TLineOpenEnds, omega: complex, x: float, terms: int
) -> tuple[complex, complex]:
    """Partial sums of the open-line bounce series: (V(omega,x)/I1, I(omega,x)/I1).

    The line is driven by the current I1 at x=0.  Each reflection pair
    contributes one right-going and one left-going exponential; the voltage
    reflection coefficient at the open ends is +1, the current coefficient -1.
    Both trains share the round-trip factor: fwd_m = exp(-i*omega*x/c0) * q^m
    and bwd_m = exp(i*omega*(x-2L)/c0) * q^m, with q^m = exp(-2i*omega*L*m/c0),
    so each is its first term times the truncated train sum_{m<terms} q^m.
    """
    _require_series_args(model, omega, x, terms)
    c0, length, z0 = model.wave_speed, model.length, model.char_impedance
    train = _train(omega * 2 * length / c0, terms)
    fwd = cmath.exp(-1j * omega * x / c0)
    bwd = cmath.exp(1j * omega * (x - 2 * length) / c0)
    return z0 * (fwd + bwd) * train, (fwd - bwd) * train


def shorted_line_series_v(
    model: TLineShortedTapped, omega: complex, x: float, terms: int
) -> complex:
    """Partial sum of the shorted-line image series for V(omega,x)/I_T.

    The direct impulse plus four image terms, each multiplied by the
    truncated round-trip train sum_{m<terms} exp(-2i*omega*L*m/c0).
    """
    _require_series_args(model, omega, x, terms)
    c0, length, z0 = model.wave_speed, model.length, model.char_impedance
    xt = model.x_transmit

    def fwd(a):  # delta(t - a/c0)
        return cmath.exp(-1j * omega * a / c0)

    def bwd(a):  # delta(t + a/c0)
        return cmath.exp(1j * omega * a / c0)

    images = (
        fwd(x - xt + 2 * length)
        + bwd(x - xt - 2 * length)
        - fwd(x + xt)
        - bwd(x + xt - 2 * length)
    )
    train = _train(omega * 2 * length / c0, terms)
    return (z0 / 2) * (fwd(abs(x - xt)) + images * train)


def lc_transfer_from_impulse(
    model: LcParallel, omega: complex, horizon: float, dt: float
) -> complex:
    """Transform of the LC impulse response by composite trapezoid on [0, horizon].

    Requires enough damping (horizon * |Im(omega)| >= 20) for the truncated
    tail to be negligible, and dt fine relative to the resonance period.  The
    integrand cos(w0*t)/C * exp(-i*omega*t) = (exp(-i*(omega-w0)*t) + exp(-i*(omega+w0)*t))
    / (2C) at the n + 1 nodes t_k = k*horizon/n, n = ceil(horizon/dt), is two trains,
    each summed by `_train` in O(log n) time and O(1) memory, never through the
    geometric closed form, less half its first and last terms (the trapezoid end
    weights).
    """
    _require_lower_half(omega)
    if not (0 < horizon < math.inf and 0 < dt < math.inf):
        raise ValueError("horizon and dt must be finite and positive")
    if dt >= 0.05 * math.sqrt(model.inductance * model.capacitance):
        raise ValueError("dt too coarse relative to the resonance period")
    if horizon * abs(omega.imag) < 20:
        raise ValueError("horizon too short for the integrand tail to decay")
    n = int(math.ceil(horizon / dt))
    step, w0 = horizon / n, model.resonance
    total = sum(_train(w * step, n + 1) - (1 + cmath.exp(-1j * w * horizon)) / 2
                for w in (omega - w0, omega + w0))
    return step * total / (2 * model.capacitance)


def _impedances(model, omega: np.ndarray):
    """(i*Z_R, i*Z_RT) of `model` at each complex omega, from one `reactances` call."""
    s = model.reactances(omega)
    return 1j * s.num_r / s.denom, 1j * s.num_rt / s.denom


def _record(name: str, worst, gate: float, what: str = "max rel err"):
    return name, bool(worst <= gate), f"{what} {worst:.2e}"


def oracle_checks():
    """Bounce series and impulse integral vs each channel's `reactances`; yields
    (name, ok, detail) for five checks: the open line's series at its two ends
    against i*Z_R and i*Z_RT; the shorted line's at the receive tap against
    i*Z_RT, and, driven at the receive tap, i*Z_R; the shorted line's null voltage
    at either shorted end; the LC impulse integral against i*Z_RT; and central
    differences of the real-axis Z_RT in the receive-tap position against
    d2V/dx2 + k^2 V = 0."""
    rng = np.random.default_rng(0)
    draws = np.arange(20) % 2  # 0, 1, 0, ...: the end or the source each draw checks

    # driven at x=0: V(0) = i*Z_R (Z_T, by symmetry) with I(0) = I1, and
    # V(L) = i*Z_RT with I(L) = 0
    open_line = TLineOpenEnds(50.0, 3.0e8, 75.0)
    c0, length = open_line.wave_speed, open_line.length
    w = (rng.uniform(0, 20, 20) - 0.5j) * c0 / length
    z_r, z_rt = _impedances(open_line, w)
    v, i = np.array([open_line_series_vi(open_line, w_j, end * length, 64)
                     for w_j, end in zip(w.tolist(), draws.tolist())]).T
    z = np.where(draws, z_rt, z_r)
    worst = max(np.max(abs(v - z) / abs(z)), np.max(abs(i - (1 - draws))))
    yield _record("open-line series vs closed form", worst, 1e-6)

    # V(x_r)/I_T is i*Z_RT; a copy driven at the receive tap gives i*Z_R there
    tapped = TLineShortedTapped(50.0, 3.0e8, 75.0, 75.0 / 7, 8 * 75.0 / 13)
    sources = (tapped, replace(tapped, x_transmit=tapped.x_receive))
    w = (rng.uniform(0.3, 20, 20) - 1e-3j) * c0 / length
    z_r, z_rt = _impedances(tapped, w)
    v = np.array([shorted_line_series_v(sources[d], w_j, tapped.x_receive, 40000)
                  for w_j, d in zip(w.tolist(), draws.tolist())])
    z = np.where(draws, z_r, z_rt)
    yield _record("shorted-line series vs closed form", np.max(abs(v - z) / abs(z)), 1e-4)

    worst = max(np.max(abs(_impedances(replace(tapped, x_receive=x), w)[1]))
                for x in (0.0, length))
    yield _record("shorted-line endpoint voltage null", worst, 1e-10, "max |V|")

    lc = LcParallel(4.7e-9, 6.0e-13)
    w0 = lc.resonance
    w = np.array([w0 * complex(1, -0.01), complex(0, -w0)])
    approx = np.array([lc_transfer_from_impulse(lc, w_j, horizon=25 / abs(w_j.imag),
                                                dt=0.01 / w0) for w_j in w.tolist()])
    exact = _impedances(lc, w)[1]
    yield _record("LC impulse-integral vs closed form", np.max(abs(approx - exact) / abs(exact)),
                  1e-3)

    # on the real axis, Z_RT as a function of the receive tap solves
    # d2V/dx2 + k^2 V = 0 away from the transmit tap; central differences in x_r,
    # against k^2 z0/|sin kL|, which bounds k^2 |Z_RT| and does not vanish
    w = rng.uniform(0.3, 20, 10) * c0 / length
    dx = 1e-4 * length
    s = [eval_reactances(replace(tapped, x_receive=tapped.x_receive + d), w)
         for d in (-dx, 0.0, dx)]
    v = [si.num_rt / si.denom for si in s]
    k2 = (w / c0) ** 2
    residual = (v[0] - 2 * v[1] + v[2]) / dx**2 + k2 * v[1]
    scale = k2 * tapped.char_impedance / abs(s[1].denom)
    yield _record("mutual reactance vs Helmholtz solution", np.max(abs(residual) / scale),
                  1e-4, "max rel residual")
