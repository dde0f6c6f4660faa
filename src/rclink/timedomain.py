"""Bounce-series oracles for the frequency-domain closed forms.

The line channels admit time-domain solutions as trains of reflected
impulses; their Fourier transforms are geometric series that converge for
Im(omega) < 0.  Evaluating truncated series at complex frequencies in the
region of convergence gives an independent check of the closed-form impedance
expressions without discretizing delta functions.  Each series is its first
terms times the train sum_{m<n} q^m, never summed through the geometric closed
form (1 - q^n)/(1 - q), which would tie the oracle to the closed form it
checks.  With m = b*j + k and b about sqrt(n), the exponent law makes each q^m
a product of two table entries, and the distributive law makes the train the
product of two table sums (`_train`): O(sqrt(n)) time and memory, not O(n).
The LC channel, whose impulse response is delta-free, also gets a direct
time-integral check, its trapezoid sum formed from two trains.
`oracle_checks` runs every comparison at fixed geometries and yields one
(name, ok, detail) record per check, with `ok` a plain bool; `rclink verify`
prints them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .channels import LcParallel, TLineOpenEnds, TLineShortedTapped, eval_reactances

__all__ = [
    "open_line_series_vi",
    "open_line_closed_vi",
    "shorted_line_series_v",
    "shorted_line_closed_v",
    "lc_transfer_from_impulse",
    "lc_transfer_closed",
    "oracle_checks",
]


def _require_lower_half(omega: complex):
    if not (math.isfinite(omega.real) and -math.inf < omega.imag < 0):
        raise ValueError("series converge only for finite omega with Im(omega) < 0")


def _require_series_args(omega: complex, x: float, terms: int):
    _require_lower_half(omega)
    if not -math.inf < x < math.inf:
        raise ValueError("x must be finite")
    if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)) or terms < 1:
        raise ValueError("terms must be an int of at least 1")


def _train(phase: complex, n: int) -> complex:
    """sum_{m<n} exp(-1j*phase*m) as (sum_{j<J} A_j)(sum_{k<b} B_k) + A_J sum_{k<R} B_k.

    With b = isqrt(n - 1) + 1, m = b*j + k and n = b*J + R, the tables A_j =
    exp(-1j*phase*b*j) and B_k = exp(-1j*phase*k) hold about sqrt(n) entries each.
    """
    b = math.isqrt(n - 1) + 1
    rows, rest = divmod(n, b)
    a = np.exp(-1j * phase * (b * np.arange(rows + 1)))
    k = np.exp(-1j * phase * np.arange(b))
    return complex(a[:rows].sum() * k.sum() + a[rows] * k[:rest].sum())


def open_line_series_vi(
    model: TLineOpenEnds, omega: complex, x: float, terms: int
) -> tuple[complex, complex]:
    """Partial sums of the open-line bounce series: (V(omega,x)/I1, I(omega,x)/I1).

    Each reflection pair contributes one right-going and one left-going
    exponential; the voltage reflection coefficient at the open ends is +1,
    the current coefficient -1.  Both trains share the round-trip factor:
    fwd_m = exp(-i*omega*x/c0) * q^m and bwd_m = exp(i*omega*(x-2L)/c0) * q^m,
    with q^m = exp(-2i*omega*L*m/c0), so each is its first term times the
    truncated train sum_{m<terms} q^m.
    """
    _require_series_args(omega, x, terms)
    c0, length, z0 = model.wave_speed, model.length, model.char_impedance
    train = _train(omega * 2 * length / c0, terms)
    fwd = cmath.exp(-1j * omega * x / c0)
    bwd = cmath.exp(1j * omega * (x - 2 * length) / c0)
    return z0 * (fwd + bwd) * train, (fwd - bwd) * train


def open_line_closed_vi(
    model: TLineOpenEnds, omega: complex, x: float
) -> tuple[complex, complex]:
    """Closed-form (V/I1, I/I1) for the open line driven at x=0."""
    c0, length, z0 = model.wave_speed, model.length, model.char_impedance
    kl = omega * length / c0
    klx = omega * (length - x) / c0
    v = -1j * z0 * cmath.cos(klx) / cmath.sin(kl)
    i = cmath.sin(klx) / cmath.sin(kl)
    return v, i


def shorted_line_series_v(
    model: TLineShortedTapped, omega: complex, x: float, terms: int
) -> complex:
    """Partial sum of the shorted-line image series for V(omega,x)/I_T.

    The direct impulse plus four image terms, each multiplied by the
    truncated round-trip train sum_{m<terms} exp(-2i*omega*L*m/c0).
    """
    _require_series_args(omega, x, terms)
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


def shorted_line_closed_v(model: TLineShortedTapped, omega: complex, x: float) -> complex:
    """Closed-form V(omega,x)/I_T for the shorted tapped line."""
    c0, length, z0 = model.wave_speed, model.length, model.char_impedance
    xt = model.x_transmit
    k = omega / c0
    return (
        1j
        * z0
        * (cmath.cos(k * (length - x - xt)) - cmath.cos(k * (length - abs(x - xt))))
        / (2 * cmath.sin(k * length))
    )


def lc_transfer_from_impulse(
    model: LcParallel, omega: complex, horizon: float, dt: float
) -> complex:
    """Transform of the LC impulse response by composite trapezoid on [0, horizon].

    Requires enough damping (horizon * |Im(omega)| >= 20) for the truncated
    tail to be negligible, and dt fine relative to the resonance period.  The
    integrand cos(w0*t)/C * exp(-i*omega*t) = (exp(-i*(omega-w0)*t) + exp(-i*(omega+w0)*t))
    / (2C) at the n + 1 nodes t_k = k*horizon/n, n = ceil(horizon/dt), is two trains,
    each summed by `_train` in O(sqrt(n)) time and memory, never through the geometric
    closed form, less half its first and last terms (the trapezoid end weights).
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


def lc_transfer_closed(model: LcParallel, omega: complex) -> complex:
    """i*omega*L / (1 - LC*omega^2), from the reactances the solvers evaluate."""
    s = model.reactances(omega)
    return complex(1j * s.num_rt / s.denom)


def _record(name: str, worst: float, gate: float, what: str = "max rel err"):
    return name, bool(worst <= gate), f"{what} {worst:.2e}"


def oracle_checks():
    """Closed-form vs bounce-series oracle checks; yields (name, ok, detail)."""
    rng = np.random.default_rng(0)

    open_line = TLineOpenEnds(50.0, 3.0e8, 75.0)
    c0, length = open_line.wave_speed, open_line.length
    s = complex(0.0, -0.5 * c0 / length)
    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(0, 20) * c0 / length, s.imag)
        x = rng.uniform(0, length)
        v_s, i_s = open_line_series_vi(open_line, w, x, 64)
        v_c, i_c = open_line_closed_vi(open_line, w, x)
        worst = max(worst, abs(v_s - v_c) / abs(v_c), abs(i_s - i_c) / max(abs(i_c), 1e-30))
    yield _record("open-line series vs closed form", worst, 1e-6)

    tapped = TLineShortedTapped(50.0, 3.0e8, 75.0, 75.0 / 7, 8 * 75.0 / 13)
    s2 = complex(0.0, -1e-3 * c0 / length)
    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(0.3, 20) * c0 / length, s2.imag)
        x = rng.uniform(0.05 * length, 0.95 * length)
        v_s = shorted_line_series_v(tapped, w, x, 40000)
        v_c = shorted_line_closed_v(tapped, w, x)
        worst = max(worst, abs(v_s - v_c) / abs(v_c))
    yield _record("shorted-line series vs closed form", worst, 1e-4)

    worst = 0.0
    for x in (0.0, length):
        v_c = shorted_line_closed_v(tapped, complex(7.0 * c0 / length, -0.3), x)
        worst = max(worst, abs(v_c))
    yield _record("shorted-line endpoint voltage null", worst, 1e-10, "max |V|")

    lc = LcParallel(4.7e-9, 6.0e-13)
    w0 = lc.resonance
    worst = 0.0
    for w in (w0 * complex(1, -0.01), complex(0, -w0)):
        approx = lc_transfer_from_impulse(lc, w, horizon=25 / abs(w.imag), dt=0.01 / w0)
        exact = lc_transfer_closed(lc, w)
        worst = max(worst, abs(approx - exact) / abs(exact))
    yield _record("LC impulse-integral vs closed form", worst, 1e-3)

    # series evaluated near the real axis against the rational reactance form
    worst = 0.0
    for _ in range(10):
        w_re = rng.uniform(0.3, 20) * c0 / length
        sample = eval_reactances(tapped, w_re)
        z_rt = sample.num_rt / sample.denom
        v_c = shorted_line_closed_v(tapped, complex(w_re, -1e-9 * c0 / length),
                                    tapped.x_receive)
        worst = max(worst, abs(v_c / 1j - z_rt) / max(abs(z_rt), 1e-12))
    yield _record("mutual reactance vs Helmholtz solution", worst, 1e-4)
