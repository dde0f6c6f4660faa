import math
import sys
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclink import (
    Band,
    ReceiverParams,
    alpha,
    beta,
    build_grid,
    capacity_lower_bound,
    capacity_upper_bound,
    output_psd,
    ratio_alpha_beta,
    solve_for_power,
    sweep,
    transfer_magnitude,
)
from rclink.channels import (LcParallel, ReactanceSample, TLineOpenEnds, TLineShortedTapped,
                             eval_reactances)
from rclink.config import default_config

from conftest import LC_MODEL, POWER_W, QA, TLINE_MODEL, make_receiver

W0 = LC_MODEL.resonance
KB = 1.38e-23


@dataclass(frozen=True)
class FixedSample:
    """A channel whose reactances are one given sample at every omega."""

    sample: ReactanceSample

    def reactances(self, omega):
        return self.sample


class TestTransferMagnitude:
    def test_lc_pole_value_is_load_resistance(self, receiver):
        assert transfer_magnitude(LC_MODEL, receiver, W0) == pytest.approx(5e4, rel=1e-9)

    def test_zero_coupling(self, receiver):
        s = ReactanceSample(num_r=10.0, num_rt=0.0, denom=0.5)
        assert transfer_magnitude(FixedSample(s), receiver, 1.0) == 0.0

    def test_monotone_in_load_resistance(self):
        omega = 1.0e10  # off-pole
        vals = [
            transfer_magnitude(LC_MODEL, make_receiver(rl), omega)
            for rl in (1e2, 1e4, 1e6, 1e8)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        s = eval_reactances(LC_MODEL, omega)
        assert vals[-1] == pytest.approx(abs(s.num_rt / s.denom), rel=1e-3)


class TestAlphaBeta:
    def test_alpha_at_pole(self, receiver):
        expected = 100.0**2 * 5e4**2 / (2 * 100.0**2 * KB * 300.0 * 5e4 + QA)
        assert expected == pytest.approx(6.04e24, rel=1e-3)
        assert alpha(LC_MODEL, receiver, W0) == pytest.approx(expected, rel=1e-9)

    def test_noiseless_receiver_rejected(self):
        with pytest.raises(ValueError):
            ReceiverParams(5e4, 100.0, 0.0, 0.0)

    def test_boltzmann_is_no_parameter(self):
        # k_B is a constant; the temperature alone sets the Johnson noise
        with pytest.raises(TypeError):
            ReceiverParams(5e4, 100.0, QA, 300.0, KB)

    def test_alpha_zero_coupling(self, receiver):
        s = ReactanceSample(num_r=3.0, num_rt=0.0, denom=0.2)
        assert alpha(FixedSample(s), receiver, 1.0) == 0.0

    def test_beta_at_pole(self, receiver):
        assert beta(LC_MODEL, receiver, W0) == pytest.approx(1.0e5, rel=1e-9)

    def test_beta_off_pole(self, receiver):
        assert beta(LC_MODEL, receiver, 1.0e10) == pytest.approx(0.17140, rel=1e-4)

    def test_beta_zero_coupling(self, receiver):
        s = ReactanceSample(num_r=3.0, num_rt=0.0, denom=0.2)
        assert beta(FixedSample(s), receiver, 1.0) == 0.0

    @given(omega=st.floats(1e8, 1e11), rl=st.floats(1e2, 1e8))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative(self, omega, rl):
        rx = make_receiver(rl)
        assert alpha(LC_MODEL, rx, omega) >= 0
        assert beta(LC_MODEL, rx, omega) >= 0


class TestRatio:
    def test_pole_value(self, receiver):
        expected = (100.0**2 * 5e4 / 2) / (2 * 100.0**2 * KB * 300.0 * 5e4 + QA)
        assert expected == pytest.approx(6.04e19, rel=1e-3)
        assert ratio_alpha_beta(LC_MODEL, receiver, W0) == pytest.approx(expected, rel=1e-9)

    def test_zero_temperature_constant(self):
        rx = make_receiver(5e4, temperature=0.0)
        expected = 100.0**2 * 5e4 / (2 * QA)
        omegas = np.array([1e9, 1e10, W0, 3e10])
        np.testing.assert_allclose(ratio_alpha_beta(LC_MODEL, rx, omegas), expected, rtol=1e-12)

    def test_pole_is_local_minimum(self, receiver):
        delta = 1e-4 * W0
        at_pole = ratio_alpha_beta(LC_MODEL, receiver, W0)
        assert at_pole < ratio_alpha_beta(LC_MODEL, receiver, W0 - delta)
        assert at_pole < ratio_alpha_beta(LC_MODEL, receiver, W0 + delta)

    def test_consistency_with_alpha_beta(self, receiver):
        rng = np.random.default_rng(3)
        omega = rng.uniform(1e9, 4e10, 500)
        omega = omega[np.abs(omega - W0) / W0 > 1e-6]
        r = ratio_alpha_beta(LC_MODEL, receiver, omega)
        a = alpha(LC_MODEL, receiver, omega)
        b = beta(LC_MODEL, receiver, omega)
        np.testing.assert_allclose(r * b, a, rtol=1e-10)

    @given(scale=st.floats(1e-6, 1e6), omega=st.floats(1e9, 4e10))
    @settings(max_examples=200, deadline=None)
    def test_rational_form_scaling_invariance(self, scale, omega):
        rx = make_receiver(5e4)
        s = eval_reactances(LC_MODEL, omega)
        scaled = ReactanceSample(s.num_r * scale, s.num_rt * scale, s.denom * scale)
        for fn in (alpha, beta, ratio_alpha_beta, transfer_magnitude):
            ref = fn(FixedSample(s), rx, omega)
            assert fn(FixedSample(scaled), rx, omega) == pytest.approx(ref, rel=1e-12)


@st.composite
def large_links(draw):
    """A channel of each kind with a band it couples over, and a receiver at 300 K
    whose R_L and g are log-uniform in [1e4, 1e160] and [1, 1e160], across the
    refusals of an overflowing R_L^2 (1.3e154) and of g*g*R_L/(2*Q_A).  The LC
    carrier reaches 30 times the resonance, where |1 - LC omega^2| is about 900.
    A "nulled" shorted line has both taps on nodes j*L/m of its mode m at the
    carrier, so at the carrier's pole node num_r and num_rt are roundoff, and
    its R_L is drawn from [1e100, 1e160], where beta there can underflow."""
    kind = draw(st.sampled_from(["lc", "open", "shorted", "nulled"]))
    rl_lo = 4.0
    if kind == "lc":
        model = LcParallel(draw(st.floats(1e-9, 1e-8)), draw(st.floats(1e-13, 1e-12)))
        carrier = model.resonance * draw(st.floats(0.9, 30.0))
    else:
        z0, length = draw(st.floats(1.0, 500.0)), draw(st.floats(10.0, 100.0))
        carrier = 2 * math.pi * draw(st.floats(1e8, 3e9))
        if kind == "open":
            model = TLineOpenEnds(z0, 3e8, length)
        elif kind == "shorted":
            model = TLineShortedTapped(z0, 3e8, length, *(draw(st.floats(0.05, 0.95)) * length
                                                           for _ in range(2)))
        else:
            m = draw(st.integers(4, 600))
            taps = (draw(st.integers(1, m - 1)) * length / m for _ in range(2))
            model = TLineShortedTapped(z0, 3e8, length, *taps)
            carrier, rl_lo = m * math.pi * 3e8 / length, 100.0
    rl, gain = 10.0 ** draw(st.floats(rl_lo, 160.0)), 10.0 ** draw(st.floats(0.0, 160.0))
    return model, Band(carrier, 1e7), rl, gain


class TestLargeReceivers:
    @settings(max_examples=200, deadline=None)
    @given(case=large_links())
    # 2.1 times the resonance, where (R_L denom)^2 would overflow unscaled
    @example(case=(LC_MODEL, Band(4.0e10, 1e7), 1.2e154, 100.0))
    # both taps on the node of mode 12 at the carrier, where beta underflows to 0
    @example(case=(TLineShortedTapped(1.0, 3e8, 18.0, 9.0, 9.0), Band(628318530.7179586, 1e7),
                   1e147, 1.0))
    def test_accepted_receiver_is_finite_and_ratio_exact(self, case):
        # the suite fails on any numpy warning, so no overflow is met on the way
        model, band, rl, gain = case
        with mpmath.workdps(40):
            mpf = mpmath.mpf
            ceiling = mpf(gain) ** 2 * mpf(rl) / (2 * mpf(QA))
            top = mpf(sys.float_info.max)
            try:
                rx = ReceiverParams(rl, gain, QA, 300.0)
            except ValueError as exc:
                assert "finite square" in str(exc) or "SNR ceiling" in str(exc)
                assert max(mpf(rl) ** 2, ceiling) > top * (1 - 1e-12)
                return
            assert max(mpf(rl) ** 2, ceiling) < top * (1 + 1e-12)
            grid = build_grid(band, model)
            sol = solve_for_power(model, rx, grid, POWER_W)
            swept = sweep(model, rx, grid)
            try:
                lower = capacity_lower_bound(model, rx, band, POWER_W, grid)
            except ValueError as exc:  # a refusal of the grid, at any R_L and g
                assert "grid too coarse" in str(exc)
                lower = 0.0
            values = [alpha(model, rx, grid), beta(model, rx, grid),
                      transfer_magnitude(model, rx, grid), sol.s_it, *output_psd(
                          model, rx, grid, sol.s_it),
                      [lower, capacity_upper_bound(rx, band, POWER_W), sol.capacity, sol.power],
                      [x for p in (*swept.points, swept.termination)
                       for x in (p.mu, p.capacity, p.power)]]
            ratio = ratio_alpha_beta(model, rx, grid)
            for v in (ratio, *values):
                assert np.isfinite(v).all()
            assert np.all(sol.s_it[values[1] == 0] == 0)  # no power where beta is 0
            # against 40 digits from the same sample, at the pole nodes and 64 others:
            # ten roundings, each within u = 2**-53, bound the relative error by 10u
            # to first order (5 to 10 ulps; the worst seen is 5.05 ulps)
            s = grid.sample
            floor = 2 * mpf(QA) / (mpf(gain) ** 2 * mpf(rl))
            for i in {*grid.pole_nodes.tolist(), *np.linspace(0, len(ratio) - 1, 64, dtype=int)}:
                r2 = mpf(s.num_r[i]) ** 2
                exact = 1 / (4 * mpf(KB) * 300 * r2 / (r2 + (mpf(rl) * mpf(s.denom[i])) ** 2)
                             + floor)
                assert abs(mpf(ratio[i]) - exact) <= 10 * 2.0**-53 * exact, i


class TestOutputPsd:
    def test_amplifier_only(self):
        rx = make_receiver(5e4, temperature=0.0)
        psd = output_psd(LC_MODEL, rx, 1e10, 0.0)
        assert psd.total == pytest.approx(QA)
        assert psd.signal == 0.0 and psd.johnson == 0.0

    def test_johnson_at_pole(self, receiver):
        psd = output_psd(LC_MODEL, receiver, W0, 0.0)
        assert psd.johnson == pytest.approx(2 * 100.0**2 * KB * 300.0 * 5e4, rel=1e-9)

    def test_snr_consistency_with_alpha(self, receiver):
        rng = np.random.default_rng(5)
        omega = rng.uniform(1e9, 4e10, 100)
        s_it = 1e-18
        psd = output_psd(LC_MODEL, receiver, omega, s_it)
        snr = psd.signal / (psd.johnson + psd.amplifier)
        np.testing.assert_allclose(snr, alpha(LC_MODEL, receiver, omega) * s_it, rtol=1e-12)

    def test_rejects_negative_density(self, receiver):
        with pytest.raises(ValueError):
            output_psd(LC_MODEL, receiver, 1e10, -1.0)


class TestCapacityBounds:
    def test_upper_bound_reference_values(self, lc_band):
        for rl, expected in ((5e4, 17.6), (5e5, 21.0), (5e6, 24.3)):
            se = capacity_upper_bound(make_receiver(rl), lc_band, POWER_W) / lc_band.bandwidth
            assert se == pytest.approx(expected, abs=0.05)

    def test_upper_bound_zero_power(self, lc_band, receiver):
        assert capacity_upper_bound(receiver, lc_band, 0.0) == 0.0

    def test_upper_bound_without_amplifier_noise(self, lc_band):
        rx = make_receiver(5e4, amp_noise=0.0)
        assert capacity_upper_bound(rx, lc_band, POWER_W) == math.inf
        assert capacity_upper_bound(rx, lc_band, 0.0) == 0.0

    @pytest.mark.parametrize("p_t", [1e8, 1e9])
    def test_upper_bound_past_the_float_range(self, lc_band, p_t):
        # rho_inf = g*g*R_L/(2*Q_A) = 1.5e307 is accepted; at 1e9 W, rho_inf*p_t/B
        # overflows, and the bound is read from the logs of its factors
        rx = ReceiverParams(1e140, 1e75, QA, 300.0)
        with mpmath.workdps(40):
            snr = mpmath.mpf(1e75) ** 2 * mpmath.mpf(1e140) / (2 * mpmath.mpf(QA)) * (
                mpmath.mpf(p_t) / mpmath.mpf(lc_band.bandwidth))
            exact = lc_band.bandwidth * mpmath.log1p(snr) / mpmath.log(2)
        upper = capacity_upper_bound(rx, lc_band, p_t)
        assert abs(upper - exact) <= 4 * 2.0**-53 * exact

    def test_lower_bound_reference_values(self, lc_band):
        for rl, expected in ((5e4, 0.426), (5e6, 9.69)):
            grid = build_grid(lc_band, LC_MODEL, 512, 6)
            lb = capacity_lower_bound(LC_MODEL, make_receiver(rl), lc_band, POWER_W, grid)
            assert lb / lc_band.bandwidth == pytest.approx(expected, rel=0.02)

    # at T = 0 alpha/beta is flat, so water-filling powers the whole band at a
    # flat SNR: C, the lower bound and the upper bound are one number
    @pytest.mark.parametrize("p_t", [POWER_W, 2.68e-18])
    @pytest.mark.parametrize("rl", [5e4, 5e6])
    @pytest.mark.parametrize("kind", ["lc", "shorted"])
    def test_zero_temperature_lower_equals_upper(self, lc_band, tline_band, kind, rl, p_t):
        model, band = (LC_MODEL, lc_band) if kind == "lc" else (TLINE_MODEL, tline_band)
        rx = make_receiver(rl, temperature=0.0)
        grid = build_grid(band, model, 512, 6)
        capacity = solve_for_power(model, rx, grid, p_t).capacity
        lb = capacity_lower_bound(model, rx, band, p_t, grid)
        ub = capacity_upper_bound(rx, band, p_t)
        for value in (capacity, lb):
            assert value == pytest.approx(ub, rel=1e-12)

    def test_lower_bound_is_flat_snr_integral(self, lc_band):
        # p_t * (alpha/beta) / B equals snr0 * psi, the zero-temperature SNR
        # times the Johnson-noise degradation factor, written out here
        grid = build_grid(lc_band, LC_MODEL, 512, 6)
        for rl in (5e4, 5e6):
            rx = make_receiver(rl)
            s = eval_reactances(LC_MODEL, grid.nodes)
            den = QA * (s.num_r**2 + rl**2 * s.denom**2)
            psi = den / (den + 2 * 100.0**2 * KB * 300.0 * rl * s.num_r**2)
            snr0 = POWER_W * 100.0**2 * rl / (2 * lc_band.bandwidth * QA)
            expected = np.sum(grid.weights * np.log2(1 + snr0 * psi))
            lb = capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid)
            assert lb == pytest.approx(expected, rel=1e-14)

    def test_bounds_keep_relative_accuracy_at_low_snr(self):
        # at 1e-32 W the per-node snr is below 1e-13, where 1 + snr rounds away
        # the digits log2(1 + snr) reads; both bounds are their linear limits
        p_t, cfg = 1e-32, default_config()
        rx, band = cfg.receiver, cfg.band
        grid = build_grid(band, cfg.channel, refine_levels=cfg.refine_levels)
        coupled = beta(cfg.channel, rx, grid) > 0
        r, w = ratio_alpha_beta(cfg.channel, rx, grid)[coupled], grid.weights[coupled]
        linear = p_t * float(np.sum(w * r)) / (band.bandwidth * math.log(2))
        lb = capacity_lower_bound(cfg.channel, rx, band, p_t, grid)
        assert abs(lb - linear) <= 1e-12 * linear
        snr = p_t * rx.amp_gain**2 * rx.load_resistance / (2 * band.bandwidth
                                                          * rx.amp_noise_density)
        ub = capacity_upper_bound(rx, band, p_t)
        assert abs(ub - band.bandwidth * snr / math.log(2)) <= 1e-12 * ub

    @pytest.mark.parametrize("base_points", [16, 40])
    def test_coarse_grid_refused(self, lc_band, base_points):
        # the every-other-node check runs on every grid, the smallest included
        grid = build_grid(lc_band, LC_MODEL, base_points, 0)
        for rl in (5e4, 5e6):
            with pytest.raises(ValueError, match="too coarse"):
                capacity_lower_bound(LC_MODEL, make_receiver(rl), lc_band, POWER_W, grid)

    def test_grid_of_another_band_refused(self, lc_band):
        # another carrier once read the same grid and gave the same bound
        grid = build_grid(lc_band, LC_MODEL, 512, 6)
        assert grid.band is lc_band
        rx = make_receiver(5e4)
        for other in (replace(lc_band, carrier=1.5 * lc_band.carrier),
                      replace(lc_band, bandwidth=2 * lc_band.bandwidth)):
            with pytest.raises(ValueError, match="grid was built for another band"):
                capacity_lower_bound(LC_MODEL, rx, other, POWER_W, grid)
        # an equal band is the same band
        assert capacity_lower_bound(LC_MODEL, rx, replace(lc_band), POWER_W, grid) == \
            capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid)

    def test_lower_below_upper(self, lc_band):
        for rl in (5e4, 5e5, 5e6):
            rx = make_receiver(rl)
            grid = build_grid(lc_band, LC_MODEL, 512, 6)
            assert capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid) < \
                capacity_upper_bound(rx, lc_band, POWER_W)


# a bare sample holds no frequencies: read at other omega, it would answer at
# its own nodes, so every public functional refuses it
SAMPLE_READERS = {
    "transfer-magnitude": lambda s, rx, omega: transfer_magnitude(s, rx, omega),
    "alpha": lambda s, rx, omega: alpha(s, rx, omega),
    "beta": lambda s, rx, omega: beta(s, rx, omega),
    "ratio": lambda s, rx, omega: ratio_alpha_beta(s, rx, omega),
    "output-psd": lambda s, rx, omega: output_psd(s, rx, omega, 0.0),
}


@pytest.mark.parametrize("call", SAMPLE_READERS.values(), ids=SAMPLE_READERS)
def test_bare_sample_refused(lc_band, call):
    grid = build_grid(lc_band, LC_MODEL, 512, 6)
    for omega in (np.array([1.0]), grid.nodes):
        with pytest.raises(ValueError, match="reactance sample is not a channel model"):
            call(grid.sample, make_receiver(5e4), omega)


class TestBandValidation:
    def test_band_must_be_positive_frequency(self):
        with pytest.raises(ValueError):
            Band(1e6, 1e7)
        with pytest.raises(ValueError):
            Band(1e10, -1.0)


# NaN passes every "<= 0" test; each value goes in at one argument
NON_FINITE_ENTRY_POINTS = {
    "receiver-load": lambda v: ReceiverParams(v, 100.0, QA, 300.0),
    "receiver-gain": lambda v: ReceiverParams(5e4, v, QA, 300.0),
    "receiver-noise": lambda v: ReceiverParams(5e4, 100.0, v, 300.0),
    "receiver-temperature": lambda v: ReceiverParams(5e4, 100.0, QA, v),
    "band-carrier": lambda v: Band(v, 1e7),
    "band-bandwidth": lambda v: Band(W0, v),
    "upper-bound-power": lambda v: capacity_upper_bound(
        make_receiver(5e4), Band(W0, 1e7), v),
    "lower-bound-power": lambda v: capacity_lower_bound(
        LC_MODEL, make_receiver(5e4), Band(W0, 1e7), v, build_grid(Band(W0, 1e7), LC_MODEL)),
    "output-psd-density": lambda v: output_psd(LC_MODEL, make_receiver(5e4), W0, v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", NON_FINITE_ENTRY_POINTS.values(), ids=NON_FINITE_ENTRY_POINTS)
def test_non_finite_refused(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


# every per-node functional reads omega through eval_reactances, which refuses
# what it would otherwise drop an imaginary part of, or turn into NaN samples
OMEGA_READERS = {
    "eval-reactances": lambda omega: eval_reactances(LC_MODEL, omega),
    "transfer-magnitude": lambda omega: transfer_magnitude(LC_MODEL, make_receiver(5e4), omega),
    "alpha": lambda omega: alpha(LC_MODEL, make_receiver(5e4), omega),
    "beta": lambda omega: beta(LC_MODEL, make_receiver(5e4), omega),
    "ratio": lambda omega: ratio_alpha_beta(LC_MODEL, make_receiver(5e4), omega),
    "output-psd": lambda omega: output_psd(LC_MODEL, make_receiver(5e4), omega, 0.0),
}
BAD_OMEGAS = {
    "complex-array": np.array([W0, W0 * (1 + 1e-3j)]),
    "complex-scalar": complex(W0, 1.0),
    "nan-array": np.array([W0, math.nan]),
    "inf-scalar": math.inf,
}


@pytest.mark.parametrize("omega", BAD_OMEGAS.values(), ids=BAD_OMEGAS)
@pytest.mark.parametrize("call", OMEGA_READERS.values(), ids=OMEGA_READERS)
def test_bad_omega_refused(call, omega):
    with pytest.raises(ValueError, match="omega must be"):
        call(omega)
