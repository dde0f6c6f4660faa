import cmath
import json
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclink import TLineOpenEnds, TLineShortedTapped
from rclink.channels import eval_reactances
from rclink.timedomain import (
    _train,
    lc_transfer_from_impulse,
    oracle_checks,
    open_line_series_vi,
    shorted_line_series_v,
)

from conftest import LC_MODEL, TLINE_MODEL, impedances
from oracles import open_line_closed_vi

OPEN_LINE = TLineOpenEnds(50.0, 3.0e8, 75.0)
C0_OVER_L = OPEN_LINE.wave_speed / OPEN_LINE.length


def open_line_loop_vi(model, omega, x, terms):
    """The open-line bounce series summed one cmath term at a time."""
    c0, length = model.wave_speed, model.length
    v = i = 0j
    for m in range(terms):
        fwd = cmath.exp(-1j * omega * (x + 2 * length * m) / c0)
        bwd = cmath.exp(1j * omega * (x - 2 * length * (m + 1)) / c0)
        v += fwd + bwd
        i += fwd - bwd
    return model.char_impedance * v, i


def shorted_line_loop_v(model, omega, x, terms):
    """The shorted-line image series with its round-trip train summed one cmath
    term at a time."""
    c0, length, xt = model.wave_speed, model.length, model.x_transmit

    def fwd(a):
        return cmath.exp(-1j * omega * a / c0)

    def bwd(a):
        return cmath.exp(1j * omega * a / c0)

    images = (fwd(x - xt + 2 * length) + bwd(x - xt - 2 * length)
              - fwd(x + xt) - bwd(x + xt - 2 * length))
    train = 0j
    for m in range(terms):
        train += fwd(2 * length * m)
    return (model.char_impedance / 2) * (fwd(abs(x - xt)) + images * train)


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("terms", [1, 2, 64, 40000])
    def test_open_line(self, terms):
        for re_, x in ((3.7, 0.2), (11.3, 0.65), (19.1, 0.9)):
            omega = complex(re_ * C0_OVER_L, -0.5 * C0_OVER_L)
            v, i = open_line_series_vi(OPEN_LINE, omega, x * OPEN_LINE.length, terms)
            v_ref, i_ref = open_line_loop_vi(OPEN_LINE, omega, x * OPEN_LINE.length, terms)
            assert abs(v - v_ref) <= 1e-9 * abs(v_ref)
            assert abs(i - i_ref) <= 1e-9 * abs(i_ref)

    @pytest.mark.parametrize("terms", [1, 2, 64, 40000])
    def test_shorted_line(self, terms):
        for re_, x in ((0.7, 0.1), (6.4, 0.55), (19.7, 0.93)):
            omega = complex(re_ * C0_OVER_L, -1e-3 * C0_OVER_L)
            v = shorted_line_series_v(TLINE_MODEL, omega, x * TLINE_MODEL.length, terms)
            v_ref = shorted_line_loop_v(TLINE_MODEL, omega, x * TLINE_MODEL.length, terms)
            assert abs(v - v_ref) <= 1e-9 * abs(v_ref)

    def test_numpy_integer_terms(self):
        omega = complex(3.7 * C0_OVER_L, -0.5 * C0_OVER_L)
        assert (open_line_series_vi(OPEN_LINE, omega, 1.0, np.int64(8))
                == open_line_series_vi(OPEN_LINE, omega, 1.0, 8))


EPS = np.finfo(float).eps


def train_bound(phase, n):
    """First-order bound on |_train(phase, n) - exact|, plus the error of a
    reference whose term m is within 2*(1 + |phase|*m)*eps of its value.

    In units of eps: each q_l is within 1.5 of its value (its exponent is exact;
    exp, cos or sin and their product round by 1/2 each).  The k-th of the P set
    bits of n, counted from k = 0 at the lowest, bit l, adds 2^l terms shift*q^r,
    each a product of at most k + l of the q_j, formed through l roundings of
    1 + q_j (1/2 each), k + max(l - 1, 0) rounded complex products (sqrt(5)/2 < 1.12
    each; the first product into shift and into S is by an exact 1), and P - max(k, 1)
    rounded additions into the total (1/2 each; the first is onto an exact 0).  Where
    1 + Re(q_j) < 1/64 its real part comes from expm1 and cos instead, within
    5*|1 + q_j| <= 0.9 of 1 + q_j (|1 + q_j| <= sqrt(2/64) there), inside the same
    allowance.
    """
    m = np.arange(n)
    weight = 2 * (1 + abs(phase) * m)
    bits = [l for l in range(n.bit_length()) if n >> l & 1]
    for k, l in enumerate(bits):
        start = n % 2**l
        weight[start:start + 2**l] += (1.5 * (k + l) + 1.12 * (k + max(l - 1, 0))
                                       + 0.5 * (l + len(bits) - max(k, 1)))
    return EPS * math.fsum(weight * np.exp(phase.imag * m))


# train lengths of one set bit, of every bit set, of the two end bits set, of a
# square and of any shape
N_TERMS = st.one_of(
    st.sampled_from([1, 2]),
    st.integers(1, 16).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
    st.integers(1, 223).flatmap(lambda r: st.sampled_from([r * r, r * r + 1])),
    st.integers(1, 50_000),
)
PHASES = st.builds(complex, st.floats(-50.0, 50.0), st.floats(-1e-2, 0.0))


@st.composite
def oracle_trains(draw):
    """(phase, n) as the oracles sum them: 2*omega*L/c0 with Re in [0, 40] on the
    lines, (omega +- w0)*step within 0.02 of 0 for the LC, and n terms with a
    decay |q|^n = exp(Im(phase)*n) of at most e^-20.  The LC check refuses less
    (horizon*|Im(omega)| >= 20), the shorted line decays by e^-80 and the open line
    by e^-64.  With less decay an undamped train can cancel to far below its
    terms, and its error is bounded in absolute terms by `train_bound` instead."""
    n = draw(st.one_of(st.sampled_from([64, 40_000, 250_001]), st.integers(1, 10**5)))
    damping = draw(st.floats(20 / n, max(1.0, 20 / n)))
    return complex(draw(st.floats(-0.02, 40.0)), -damping), n


class TestTrain:
    @settings(max_examples=200, deadline=None)
    @given(phase=PHASES, n=N_TERMS)
    def test_matches_direct_exponentials(self, phase, n):
        # each direct term is within (2 + |phase|*m/2)*eps: its exponent phase*m
        # rounds, then exp, then the fsum of the magnitudes
        direct = np.exp(-1j * phase * np.arange(n))
        expected = complex(math.fsum(direct.real), math.fsum(direct.imag))
        assert abs(_train(phase, n) - expected) <= train_bound(phase, n)

    @settings(deadline=None)
    @example(train=(complex(12.8, -2e-3), 40_000))  # the shorted-line check's damping
    @example(train=(complex(0.02, -1e-4), 250_001))  # the LC check near resonance
    @example(train=(complex(math.pi, -1e-8), 64))  # 1 + q_0 near 0
    @given(train=oracle_trains())
    def test_matches_50_digit_sum(self, train):
        phase, n = train
        # the finite sum is expm1(n*z)/expm1(z) with z = -1j*phase, free of the
        # cancellation in 1 - q near q = 1
        with mpmath.workdps(50):
            z = -1j * mpmath.mpc(phase)
            exact = complex(mpmath.expm1(n * z) / mpmath.expm1(z))
        assert abs(_train(phase, n) - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("n", [10**40, 2**1100], ids=["1e40", "2^1100"])
    def test_damped_long_train_has_converged(self, n):
        # at the shorted-line check's damping |q|^40000 = e^-80: a 10^40-term train,
        # in at most 133 binary steps, has converged to the 40,000-term one; past
        # 2^1024 terms the exponent would overflow, but q_l has long underflowed to 0
        phase = complex(12.8, -2e-3)
        converged = _train(phase, 40_000)
        assert abs(_train(phase, n) - converged) <= 1e-13 * abs(converged)

    @given(phase=PHASES)
    def test_single_term_is_exactly_one(self, phase):
        assert _train(phase, 1) == 1


W_OK = complex(3.7 * C0_OVER_L, -0.5 * C0_OVER_L)
SERIES = {"open": lambda w, x, n: open_line_series_vi(OPEN_LINE, w, x, n),
          "shorted": lambda w, x, n: shorted_line_series_v(TLINE_MODEL, w, x, n)}
BAD_OMEGAS = {
    "real-nan": complex(math.nan, -1e6),
    "real-inf": complex(math.inf, -1e6),
    "imag-nan": complex(1e8, math.nan),
    "imag-minus-inf": complex(1e8, -math.inf),
    "imag-zero": complex(1e8, 0.0),
    "upper-half": complex(1e8, 1e5),
}
BAD_TERMS = {"zero": 0, "negative": -3, "fraction": 2.5, "float": 8.0, "bool": True,
             "string": "8", "none": None}


class TestRefusals:
    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("omega", BAD_OMEGAS.values(), ids=BAD_OMEGAS.keys())
    def test_series_refuse_bad_omega(self, series, omega):
        with pytest.raises(ValueError):
            SERIES[series](omega, 1.0, 8)

    # both lines are 75 m long: -1 and 76 lie off each of them
    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, 76.0])
    def test_series_refuse_non_finite_x(self, series, x):
        with pytest.raises(ValueError):
            SERIES[series](W_OK, x, 8)

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize("terms", BAD_TERMS.values(), ids=BAD_TERMS.keys())
    def test_series_refuse_bad_terms(self, series, terms):
        with pytest.raises(ValueError):
            SERIES[series](W_OK, 1.0, terms)

    @pytest.mark.parametrize("omega", BAD_OMEGAS.values(), ids=BAD_OMEGAS.keys())
    def test_impulse_refuses_bad_omega(self, omega):
        w0 = LC_MODEL.resonance
        with pytest.raises(ValueError):
            lc_transfer_from_impulse(LC_MODEL, omega, 25 / w0, 0.01 / w0)

    # (horizon, dt) in units of 1/w0; none of them reaches an array allocation
    BAD_STEPS = {
        "horizon-nan": (math.nan, 0.01), "horizon-inf": (math.inf, 0.01),
        "horizon-zero": (0.0, 0.01), "horizon-negative": (-300.0, 0.01),
        "dt-nan": (300.0, math.nan), "dt-inf": (300.0, math.inf),
        "dt-zero": (300.0, 0.0), "dt-negative": (300.0, -0.01),
    }

    @pytest.mark.parametrize("steps", BAD_STEPS.values(), ids=BAD_STEPS.keys())
    def test_impulse_refuses_bad_steps(self, steps):
        w0 = LC_MODEL.resonance
        with pytest.raises(ValueError):
            lc_transfer_from_impulse(LC_MODEL, w0 * complex(1, -0.1),
                                     steps[0] / w0, steps[1] / w0)


def test_oracle_records_are_plain_json():
    records = list(oracle_checks())
    assert len(records) == 5
    for record in records:
        assert [type(v) for v in record] == [str, bool, str]
    json.dumps(records)


class TestOpenLineSeries:
    def test_converges_to_closed_form(self):
        # driven at x = 0: V(0) = i*Z_R with I(0) = 1, and V(L) = i*Z_RT with I(L) = 0
        rng = np.random.default_rng(2)
        im = -0.5 * C0_OVER_L
        for _ in range(20):
            omega = complex(rng.uniform(0.0, 20.0) * C0_OVER_L, im)
            z_r, z_rt = impedances(OPEN_LINE, omega)
            for x, v_c, i_c in ((0.0, z_r, 1.0), (OPEN_LINE.length, z_rt, 0.0)):
                v_s, i_s = open_line_series_vi(OPEN_LINE, omega, x, 64)
                assert abs(v_s - v_c) <= 1e-6 * abs(v_c)
                assert abs(i_s - i_c) <= 1e-6

    def test_converges_to_standing_wave(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            omega = complex(rng.uniform(0.0, 20.0) * C0_OVER_L, -0.5 * C0_OVER_L)
            x = rng.uniform(0.0, OPEN_LINE.length)
            v_s, i_s = open_line_series_vi(OPEN_LINE, omega, x, 64)
            v_c, i_c = open_line_closed_vi(OPEN_LINE, omega, x)
            assert abs(v_s - v_c) <= 1e-6 * abs(v_c)
            assert abs(i_s - i_c) <= 1e-6 * max(abs(i_c), 1e-12)

    def test_single_term_identity_at_origin(self):
        omega = complex(3.7 * C0_OVER_L, -0.4 * C0_OVER_L)
        v, i = open_line_series_vi(OPEN_LINE, omega, 0.0, 1)
        length, c0, z0 = OPEN_LINE.length, OPEN_LINE.wave_speed, OPEN_LINE.char_impedance
        expected_v = z0 * (1 + cmath.exp(-2j * omega * length / c0))
        assert v == pytest.approx(expected_v)
        assert i == pytest.approx(1 - cmath.exp(-2j * omega * length / c0))

    def test_current_vanishes_at_far_end(self):
        # forward and backward exponentials cancel pairwise at x = L
        omega = complex(5.3 * C0_OVER_L, -0.5 * C0_OVER_L)
        for terms in (1, 8, 64):
            _, i = open_line_series_vi(OPEN_LINE, omega, OPEN_LINE.length, terms)
            assert abs(i) <= 1e-14

    def test_term_doubling_tail_bound(self):
        omega = complex(2.1 * C0_OVER_L, -0.5 * C0_OVER_L)
        x = 0.3 * OPEN_LINE.length
        per_term = math.exp(2 * OPEN_LINE.length * omega.imag / OPEN_LINE.wave_speed)
        for m in (8, 16, 32):
            v_m, _ = open_line_series_vi(OPEN_LINE, omega, x, m)
            v_2m, _ = open_line_series_vi(OPEN_LINE, omega, x, 2 * m)
            assert abs(v_2m - v_m) <= 2 * abs(v_m) * per_term**m

    def test_rejects_upper_half_plane(self):
        with pytest.raises(ValueError):
            open_line_series_vi(OPEN_LINE, complex(1e8, 0.0), 1.0, 8)
        with pytest.raises(ValueError):
            open_line_series_vi(OPEN_LINE, complex(1e8, 1e5), 1.0, 8)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            open_line_series_vi(OPEN_LINE, complex(1e8, -1e6), 1.0, 0)


def tapped_at(x):
    """The reference shorted line with its receive tap at x: V(x)/I_T is its i*Z_RT."""
    return replace(TLINE_MODEL, x_receive=x)


class TestShortedLineSeries:
    def test_endpoint_nulls(self):
        omega = complex(4.9 * C0_OVER_L, -0.2 * C0_OVER_L)
        scale = abs(impedances(TLINE_MODEL, omega)[1])
        for x in (0.0, TLINE_MODEL.length):
            assert impedances(tapped_at(x), omega)[1] == 0
            v_s = shorted_line_series_v(TLINE_MODEL, omega, x, 200)
            per_term = math.exp(2 * TLINE_MODEL.length * omega.imag / TLINE_MODEL.wave_speed)
            tail = 4 * TLINE_MODEL.char_impedance * per_term**200 / (1 - per_term)
            assert abs(v_s) <= max(tail, 1e-10 * scale)

    def test_series_converges_to_closed_form(self):
        rng = np.random.default_rng(4)
        omega_im = -1e-3 * C0_OVER_L
        for _ in range(10):
            omega = complex(rng.uniform(0.3, 15.0) * C0_OVER_L, omega_im)
            x = rng.uniform(0.1, 0.9) * TLINE_MODEL.length
            v_s = shorted_line_series_v(TLINE_MODEL, omega, x, 40000)
            v_c = impedances(tapped_at(x), omega)[1]
            assert abs(v_s - v_c) <= 1e-4 * abs(v_c)

    def test_long_train_in_bounded_memory(self):
        # at a check frequency |q|^40000 = e^-80, so both trains have converged;
        # 10^10 terms take at most 34 binary steps in O(1) memory, not a 160 GB term array
        omega = complex(6.4 * C0_OVER_L, -1e-3 * C0_OVER_L)
        x = 0.55 * TLINE_MODEL.length
        converged = shorted_line_series_v(TLINE_MODEL, omega, x, 40000)
        tracemalloc.start()
        try:
            v = shorted_line_series_v(TLINE_MODEL, omega, x, 10**10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(v - converged) <= 1e-9 * abs(converged)
        assert peak <= 2**20

    def test_matches_rational_mutual_reactance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            omega_re = rng.uniform(0.3, 15.0) * C0_OVER_L
            if abs(math.sin(omega_re / C0_OVER_L)) < 1e-2:
                continue
            s = eval_reactances(TLINE_MODEL, omega_re)
            z_rt = s.num_rt / s.denom
            v = impedances(TLINE_MODEL, complex(omega_re, -1e-3 * C0_OVER_L))[1]
            assert (v / 1j).real == pytest.approx(z_rt, rel=1e-2)
            v_tight = impedances(TLINE_MODEL, complex(omega_re, -1e-9 * C0_OVER_L))[1]
            assert (v_tight / 1j).real == pytest.approx(z_rt, rel=1e-6)

    def test_helmholtz_residual(self):
        omega = complex(6.4 * C0_OVER_L, -0.1 * C0_OVER_L)
        k = omega / TLINE_MODEL.wave_speed
        dx = TLINE_MODEL.length * 1e-4
        for x in (0.31 * TLINE_MODEL.length, 0.77 * TLINE_MODEL.length):
            v, v_p, v_m = (impedances(tapped_at(y), omega)[1] for y in (x, x + dx, x - dx))
            residual = (v_p - 2 * v + v_m) / dx**2 + k**2 * v
            assert abs(residual) <= 1e-3 * abs(k**2 * v)

    def test_rejects_upper_half_plane(self):
        with pytest.raises(ValueError):
            shorted_line_series_v(TLINE_MODEL, complex(1e8, 0.0), 1.0, 8)


# a tap as a fraction of the line: anywhere on it, or on one of its shorted ends
TAP = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


@st.composite
def lines_at_complex_omega(draw):
    """An open line, or a shorted one with end taps and coincident taps among its
    draws, and an omega with Re up to 40*c0/L and Im in [-1, -0.01]*c0/L."""
    z0 = draw(st.floats(1.0, 500.0))
    c0 = draw(st.floats(1e6, 3e8))
    length = draw(st.floats(0.01, 1e3))
    if draw(st.booleans()):
        model = TLineOpenEnds(z0, c0, length)
    else:
        xt = draw(TAP) * length
        xr = draw(st.one_of(st.just(xt), TAP.map(lambda f: f * length)))
        model = TLineShortedTapped(z0, c0, length, xt, xr)
    return model, complex(draw(st.floats(0.0, 40.0)), draw(st.floats(-1.0, -0.01))) * c0 / length


class TestReactancesAtComplexOmega:
    @settings(max_examples=200, deadline=None)
    @given(case=lines_at_complex_omega())
    def test_match_the_bounce_series(self, case):
        # the series have converged: |q|^40000 <= exp(-800); an open line driven
        # at 0 has V(0) = i*Z_R and V(L) = i*Z_RT, a shorted line V(x_r) = i*Z_RT,
        # and driven at its receive tap V(x_r) = i*Z_R
        model, omega = case
        z_r, z_rt = impedances(model, omega)
        if isinstance(model, TLineOpenEnds):
            series = [open_line_series_vi(model, omega, x, 40000)[0] for x in (0.0, model.length)]
        else:
            series = [shorted_line_series_v(m, omega, model.x_receive, 40000)
                      for m in (replace(model, x_transmit=model.x_receive), model)]
        kl = omega * model.length / model.wave_speed
        bound = 1e-9 * model.char_impedance / abs(cmath.sin(kl))
        for v, z in zip(series, (z_r, z_rt)):
            assert abs(v - z) <= bound


@st.composite
def lc_integrals(draw):
    """(omega, horizon, dt) that lc_transfer_from_impulse accepts, in at most 50k steps."""
    w0 = LC_MODEL.resonance
    dt = draw(st.floats(0.005, 0.049)) / w0
    horizon = draw(st.floats(7 / w0, 49_999 * dt))
    damping = draw(st.floats(20.001 / horizon, 3 * w0))
    return complex(draw(st.floats(-5 * w0, 5 * w0)), -damping), horizon, dt


class TestLcTransfer:
    W0 = LC_MODEL.resonance

    def test_near_resonance(self):
        omega = self.W0 * complex(1.0, -0.01)
        approx = lc_transfer_from_impulse(LC_MODEL, omega, 25 / abs(omega.imag), 0.01 / self.W0)
        exact = impedances(LC_MODEL, omega)[1]
        assert abs(approx - exact) <= 1e-3 * abs(exact)

    def test_imaginary_axis(self):
        omega = complex(0.0, -self.W0)
        approx = lc_transfer_from_impulse(LC_MODEL, omega, 25 / self.W0, 0.01 / self.W0)
        exact = impedances(LC_MODEL, omega)[1]
        assert exact.real > 0 and abs(exact.imag) < 1e-9 * exact.real
        assert abs(approx - exact) <= 1e-3 * abs(exact)

    def test_short_horizon_tail_bound(self):
        omega = complex(0.3 * self.W0, -0.5 * self.W0)
        full = lc_transfer_from_impulse(LC_MODEL, omega, 60 / self.W0, 0.005 / self.W0)
        short = lc_transfer_from_impulse(LC_MODEL, omega, 41 / self.W0, 0.005 / self.W0)
        tail = math.exp(omega.imag * 41 / self.W0) / (abs(omega.imag) * LC_MODEL.capacitance)
        assert abs(full - short) <= 2 * tail

    # the check frequencies; the near-resonance one runs at the check's own
    # horizon of 25/|Im(omega)|, as 25/w0 is refused as too short there
    @settings(deadline=None)
    @example(case=(W0 * complex(1, -0.01), 2500 / W0, 0.01 / W0))
    @example(case=(complex(0, -W0), 25 / W0, 0.01 / W0))
    # 35,333 steps at |phase| = 0.0475: the rounded phase (omega +- w0)*step, off by
    # about |phase|*m*eps in term m, leaves 5.2e-14 relative
    @example(case=(complex(0.04750051642944412, -224416907), 8.912430142608736e-08,
                   2.5224518532967423e-12))
    @given(case=lc_integrals())
    def test_matches_linspace_trapezoid(self, case):
        """The trapezoid sum on the n + 1 linspace nodes, each train q^m, m <= n,
        summed exactly by its geometric closed form, within `train_bound` summed
        over both trains: its reference allowance covers the rounded phase
        (omega +- w0)*step, within 1.5*|phase|*m*eps in term m, the end weights
        and the scaling."""
        omega, horizon, dt = case
        n = math.ceil(horizon / dt)
        step = horizon / n
        expected, bound = mpmath.mpc(0), 0.0
        with mpmath.workdps(40):
            for sign in (-1, 1):
                w = mpmath.mpc(omega) + sign * mpmath.mpf(self.W0)
                q = mpmath.exp(-1j * w * mpmath.mpf(horizon) / n)
                expected += (1 - q ** (n + 1)) / (1 - q) - (1 + q**n) / 2
                bound += train_bound((omega + sign * self.W0) * step, n + 1)
            expected = complex(expected * mpmath.mpf(horizon) / n
                               / (2 * mpmath.mpf(LC_MODEL.capacitance)))
        bound *= step / (2 * LC_MODEL.capacitance)
        assert abs(lc_transfer_from_impulse(LC_MODEL, omega, horizon, dt) - expected) <= bound

    def test_rejects_coarse_dt(self):
        omega = complex(self.W0, -0.1 * self.W0)
        with pytest.raises(ValueError):
            lc_transfer_from_impulse(
                LC_MODEL, omega, 300 / self.W0,
                0.06 * math.sqrt(LC_MODEL.inductance * LC_MODEL.capacitance))

    def test_rejects_short_horizon(self):
        omega = complex(self.W0, -0.1 * self.W0)
        with pytest.raises(ValueError):
            lc_transfer_from_impulse(LC_MODEL, omega, 1 / self.W0, 0.01 / self.W0)
