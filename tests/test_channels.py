import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclink import (
    LcParallel,
    TLineOpenEnds,
    TLineShortedTapped,
    eval_reactances,
    poles_in_interval,
)

from conftest import LC_MODEL, TLINE_MODEL
from oracles import (
    lc_reactance_admittance,
    open_line_closed_vi,
    shorted_mutual_reactance,
    shorted_numerators_by_definition,
)

OPEN_LINE = TLineOpenEnds(50.0, 3.0e8, 75.0)
# a tap as a fraction of the line: anywhere on it, or on one of its shorted ends
TAP = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


class TestEvalReactances:
    def test_lc_example(self):
        s = eval_reactances(LC_MODEL, 1.0e10)
        assert s.num_r == pytest.approx(47.0)
        assert s.denom == pytest.approx(0.718)
        assert s.num_r / s.denom == pytest.approx(65.4596, rel=1e-4)
        # all entries of the LC matrix are equal
        assert s.num_r == s.num_rt

    def test_shorted_tap_at_short_kills_coupling(self):
        model = TLineShortedTapped(50.0, 3.0e8, 75.0, 0.0, 40.0)
        for omega in (1.0e7, 3.7e8, 2.0e10):
            assert eval_reactances(model, omega).num_rt == 0.0

    def test_open_line_quarter_wave(self):
        omega = math.pi * OPEN_LINE.wave_speed / (2 * OPEN_LINE.length)
        s = eval_reactances(OPEN_LINE, omega)
        assert s.num_r / s.denom == pytest.approx(0.0, abs=1e-12)
        assert s.num_rt / s.denom == pytest.approx(-50.0)

    def test_lc_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        w0 = LC_MODEL.resonance
        omega = rng.uniform(1e8, 4e10, 20000)
        omega = omega[np.abs(omega - w0) / w0 > 1e-3][:10000]
        assert len(omega) == 10000
        s = eval_reactances(LC_MODEL, omega)
        expected = np.array([
            lc_reactance_admittance(LC_MODEL.inductance, LC_MODEL.capacitance, w)
            for w in omega
        ])
        np.testing.assert_allclose(s.num_r / s.denom, expected, rtol=1e-12)

    def test_shorted_line_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        step = math.pi * TLINE_MODEL.wave_speed / TLINE_MODEL.length
        omega = rng.uniform(0.05, 200.0, 400) * step
        omega = omega[np.abs(np.sin(omega * TLINE_MODEL.length / TLINE_MODEL.wave_speed)) > 1e-3]
        s = eval_reactances(TLINE_MODEL, omega)
        expected = np.array([shorted_mutual_reactance(TLINE_MODEL, w) for w in omega])
        np.testing.assert_allclose(s.num_rt / s.denom, expected, rtol=1e-10)

    def test_open_line_helmholtz_equivalence(self):
        # V/I1 of the closed form, just below the real axis, is i times the
        # reactance: Z_RT at the far end x = L, and Z_R at the driven end x = 0,
        # as the line is symmetric end to end
        rng = np.random.default_rng(13)
        c0, length = OPEN_LINE.wave_speed, OPEN_LINE.length
        omega = rng.uniform(0.05, 200.0, 400) * math.pi * c0 / length
        omega = omega[np.abs(np.sin(omega * length / c0)) > 1e-3] - 1e-9j * c0 / length
        s = OPEN_LINE.reactances(omega)
        for x, num in ((length, s.num_rt), (0.0, s.num_r)):
            expected = np.array([open_line_closed_vi(OPEN_LINE, w, x)[0] / 1j for w in omega])
            np.testing.assert_allclose(num / s.denom, expected, rtol=1e-12)

    def test_finite_at_poles(self):
        for model in (LC_MODEL, TLINE_MODEL, OPEN_LINE):
            poles = poles_in_interval(model, 0.0, 1e11)
            if len(poles) == 0:
                continue
            s = eval_reactances(model, poles)
            for field in (s.num_r, s.num_rt, s.denom):
                assert np.all(np.isfinite(field))

    @pytest.mark.parametrize("taps", [(10.0, 40.0), (40.0, 10.0), (30.0, 30.0)])
    @pytest.mark.parametrize("omega", [1e9, np.linspace(1e8, 1e10, 64)], ids=["scalar", "array"])
    def test_shorted_line_takes_four_sines(self, monkeypatch, taps, omega):
        calls = []
        sin = np.sin
        monkeypatch.setattr(np, "sin", lambda x: calls.append(1) or sin(x))
        eval_reactances(TLineShortedTapped(50.0, 3.0e8, 75.0, *taps), omega)
        monkeypatch.undo()
        assert len(calls) == 4

    @given(
        xt=st.floats(0.0, 75.0),
        xr=st.floats(0.0, 75.0),
        omega=st.floats(1e6, 1e11),
    )
    @settings(max_examples=200, deadline=None)
    def test_tap_symmetry(self, xt, xr, omega):
        a = eval_reactances(TLineShortedTapped(50.0, 3.0e8, 75.0, xt, xr), omega)
        b = eval_reactances(TLineShortedTapped(50.0, 3.0e8, 75.0, xr, xt), omega)
        assert a.num_rt == b.num_rt

    @given(
        x_other=st.floats(0.0, 75.0),
        boundary=st.sampled_from([0.0, 75.0]),
        transmit_at_boundary=st.booleans(),
        omega=st.floats(1e6, 1e11),
    )
    @settings(max_examples=200, deadline=None)
    def test_boundary_null(self, x_other, boundary, transmit_at_boundary, omega):
        xt, xr = (boundary, x_other) if transmit_at_boundary else (x_other, boundary)
        s = eval_reactances(TLineShortedTapped(50.0, 3.0e8, 75.0, xt, xr), omega)
        assert s.num_rt == 0.0

    @given(
        length=st.floats(0.5, 500.0),
        taps=st.one_of(st.tuples(TAP, TAP), TAP.map(lambda f: (f, f))),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_shorted_numerators_exact(self, length, taps, seed):
        """The four shared sines give each numerator exactly as its own two sines
        do.  Swapping the taps makes num_r the transmit tap's own numerator and
        keeps num_rt; a tap on an end gives num_rt = 0, and coincident taps equal
        numerators."""
        xt, xr = (f * length for f in taps)
        model = TLineShortedTapped(50.0, 3.0e8, length, xt, xr)
        swapped = TLineShortedTapped(50.0, 3.0e8, length, xr, xt)
        omegas = np.random.default_rng(seed).uniform(0.0, 1e11, 64)
        for omega in (omegas, float(omegas[0])):
            s, t = eval_reactances(model, omega), eval_reactances(swapped, omega)
            num_t, num_r, num_rt = shorted_numerators_by_definition(model, omega)
            np.testing.assert_array_equal(s.num_r, num_r)
            np.testing.assert_array_equal(s.num_rt, num_rt)
            np.testing.assert_array_equal(t.num_rt, s.num_rt)
            np.testing.assert_array_equal(t.num_r, num_t)
            if {xt, xr} & {0.0, length}:
                assert np.all(s.num_rt == 0.0)
            if xt == xr:
                np.testing.assert_array_equal(s.num_r, s.num_rt)


class TestPoles:
    def test_lc_pole(self):
        poles = poles_in_interval(LC_MODEL, 1.8e10, 1.9e10)
        assert len(poles) == 1
        assert poles[0] == pytest.approx(1.8831e10, rel=1e-4)
        assert poles[0] == pytest.approx(2 * math.pi * 2.997e9, rel=1e-3)

    def test_line_pole_enumeration(self):
        poles = poles_in_interval(OPEN_LINE, 0.0, 5e7)
        expected = math.pi * 3e8 / 75.0 * np.arange(4)
        np.testing.assert_allclose(poles, expected, rtol=1e-12, atol=1e-9)

    def test_empty_between_adjacent_poles(self):
        step = math.pi * 3e8 / 75.0
        assert len(poles_in_interval(OPEN_LINE, 1.1 * step, 1.9 * step)) == 0
        w0 = LC_MODEL.resonance
        assert len(poles_in_interval(LC_MODEL, 1.01 * w0, 2 * w0)) == 0

    def test_lc_omega_zero_not_a_pole(self):
        assert len(poles_in_interval(LC_MODEL, 0.0, 1e9)) == 0

    def test_line_zero_is_a_pole(self):
        assert poles_in_interval(TLINE_MODEL, 0.0, 1e6)[0] == 0.0

    def test_only_poles_inside_the_interval(self):
        # the pole ladder's index range is widened by 1e-9 of a step against
        # roundoff; a pole that widening reaches outside [lo, hi] is dropped
        step = math.pi * TLINE_MODEL.wave_speed / TLINE_MODEL.length
        lo, hi = 1000 * step * (1 + 3e-13), 1005 * step * (1 - 3e-13)
        np.testing.assert_array_equal(poles_in_interval(TLINE_MODEL, lo, hi),
                                      step * np.arange(1001, 1005))
        # a pole exactly on an end counts, and one an ulp beyond it does not
        np.testing.assert_array_equal(poles_in_interval(TLINE_MODEL, 1000 * step, 1005 * step),
                                      step * np.arange(1000, 1006))
        lo, hi = np.nextafter(1000 * step, np.inf), np.nextafter(1005 * step, 0)
        np.testing.assert_array_equal(poles_in_interval(TLINE_MODEL, lo, hi),
                                      step * np.arange(1001, 1005))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            poles_in_interval(LC_MODEL, 2e10, 1e10)

    # a line's pole ladder would count up to an infinite hi
    @pytest.mark.parametrize("model", [LC_MODEL, OPEN_LINE], ids=["lc", "line"])
    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan), (0.0, math.inf)])
    def test_interval_refused(self, model, lo, hi):
        with pytest.raises(ValueError, match="require 0 <= lo < hi < inf"):
            poles_in_interval(model, lo, hi)


class TestValidation:
    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            LcParallel(-1e-9, 6e-13)
        with pytest.raises(ValueError):
            TLineOpenEnds(50.0, 3e8, 0.0)

    def test_tap_range(self):
        with pytest.raises(ValueError):
            TLineShortedTapped(50.0, 3e8, 75.0, 80.0, 10.0)
        with pytest.raises(ValueError):
            TLineShortedTapped(50.0, 3e8, 75.0, 10.0, -1.0)

    # NaN passes every "<= 0" test; each value goes in at one field
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: LcParallel(v, 6e-13),
        lambda v: LcParallel(4.7e-9, v),
        lambda v: TLineOpenEnds(v, 3e8, 75.0),
        lambda v: TLineOpenEnds(50.0, v, 75.0),
        lambda v: TLineOpenEnds(50.0, 3e8, v),
        lambda v: TLineShortedTapped(50.0, 3e8, v, 10.0, 20.0),
        lambda v: TLineShortedTapped(50.0, 3e8, 75.0, v, 20.0),
        lambda v: TLineShortedTapped(50.0, 3e8, 75.0, 10.0, v),
    ], ids=["lc-l", "lc-c", "open-z0", "open-c0", "open-length", "shorted-length",
            "shorted-x-transmit", "shorted-x-receive"])
    def test_non_finite_refused(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)

    def test_coincident_taps_allowed(self):
        model = TLineShortedTapped(50.0, 3e8, 75.0, 30.0, 30.0)
        s = eval_reactances(model, 1e9)
        assert s.num_rt == s.num_r
