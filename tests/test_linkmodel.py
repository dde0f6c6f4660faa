import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    transfer_magnitude,
)
from rclink.channels import ReactanceSample, eval_reactances

from conftest import LC_MODEL, POWER_W, QA, make_receiver

W0 = LC_MODEL.resonance
KB = 1.38e-23


class TestTransferMagnitude:
    def test_lc_pole_value_is_load_resistance(self, receiver):
        assert transfer_magnitude(LC_MODEL, receiver, W0) == pytest.approx(5e4, rel=1e-9)

    def test_zero_coupling(self, receiver):
        s = ReactanceSample(num_t=10.0, num_r=10.0, num_rt=0.0, denom=0.5)
        assert transfer_magnitude(s, receiver, None) == 0.0

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

    def test_alpha_zero_coupling(self, receiver):
        s = ReactanceSample(num_t=3.0, num_r=3.0, num_rt=0.0, denom=0.2)
        assert alpha(s, receiver, None) == 0.0

    def test_beta_at_pole(self, receiver):
        assert beta(LC_MODEL, receiver, W0) == pytest.approx(1.0e5, rel=1e-9)

    def test_beta_off_pole(self, receiver):
        assert beta(LC_MODEL, receiver, 1.0e10) == pytest.approx(0.17140, rel=1e-4)

    def test_beta_zero_coupling(self, receiver):
        s = ReactanceSample(num_t=3.0, num_r=3.0, num_rt=0.0, denom=0.2)
        assert beta(s, receiver, None) == 0.0

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
        scaled = ReactanceSample(
            s.num_t * scale, s.num_r * scale, s.num_rt * scale, s.denom * scale
        )
        for fn in (alpha, beta, ratio_alpha_beta):
            ref = fn(s, rx, None)
            assert fn(scaled, rx, None) == pytest.approx(ref, rel=1e-12)
        assert transfer_magnitude(scaled, rx, None) == pytest.approx(
            transfer_magnitude(s, rx, None), rel=1e-12
        )


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

    def test_lower_bound_reference_values(self, lc_band):
        for rl, expected in ((5e4, 0.426), (5e6, 9.69)):
            grid = build_grid(lc_band, LC_MODEL, 512, 6)
            lb = capacity_lower_bound(LC_MODEL, make_receiver(rl), lc_band, POWER_W, grid)
            assert lb / lc_band.bandwidth == pytest.approx(expected, rel=0.02)

    def test_zero_temperature_lower_equals_upper(self, lc_band):
        rx = make_receiver(5e4, temperature=0.0)
        grid = build_grid(lc_band, LC_MODEL, 512, 6)
        lb = capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid)
        ub = capacity_upper_bound(rx, lc_band, POWER_W)
        assert lb == pytest.approx(ub, rel=1e-9)

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
            expected = np.sum(grid.weights * np.log2(1 + snr0 * psi)) / (2 * math.pi)
            lb = capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid)
            assert lb == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("base_points", [16, 40])
    def test_coarse_grid_refused(self, lc_band, base_points):
        # the every-other-node check runs on every grid, the smallest included
        grid = build_grid(lc_band, LC_MODEL, base_points, 0)
        for rl in (5e4, 5e6):
            with pytest.raises(ValueError, match="too coarse"):
                capacity_lower_bound(LC_MODEL, make_receiver(rl), lc_band, POWER_W, grid)

    def test_lower_below_upper(self, lc_band):
        for rl in (5e4, 5e5, 5e6):
            rx = make_receiver(rl)
            grid = build_grid(lc_band, LC_MODEL, 512, 6)
            assert capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid) < \
                capacity_upper_bound(rx, lc_band, POWER_W)


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
    "receiver-boltzmann": lambda v: ReceiverParams(5e4, 100.0, QA, 300.0, v),
    "band-carrier": lambda v: Band(v, 1e7),
    "band-bandwidth": lambda v: Band(W0, v),
    "upper-bound-power": lambda v: capacity_upper_bound(
        make_receiver(5e4), Band(W0, 1e7), v),
    "lower-bound-power": lambda v: capacity_lower_bound(
        LC_MODEL, make_receiver(5e4), Band(W0, 1e7), v, build_grid(Band(W0, 1e7), LC_MODEL)),
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
