"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with `pytest -s` or in the
captured output) in addition to its assertions.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from rclink import (
    Band,
    ReceiverParams,
    build_grid,
    capacity_lower_bound,
    capacity_upper_bound,
    eval_reactances,
    poles_in_interval,
    ratio_alpha_beta,
    solve_for_mu,
    solve_for_power,
    sweep,
)
from rclink.timedomain import lc_transfer_from_impulse, open_line_series_vi, shorted_line_series_v
from rclink import TLineOpenEnds, TLineShortedTapped
from rclink.linkmodel import BOLTZMANN

from conftest import (BASE_POINTS, LC_MODEL, POWER_W, QA, REFINE, TLINE_MODEL, impedances,
                      make_receiver)
from oracles import lc_lower_bound_continuous, lc_quadratics, riemann_capacity_power

TABLE1 = [
    (5e4, 0.426, 0.500, 17.6),
    (5e5, 3.58, 3.67, 21.0),
    (5e6, 9.69, 9.70, 24.3),
]


def test_criterion_01_table1_upper_bounds(lc_band):
    rows = []
    for rl, _, _, expected in TABLE1:
        se = capacity_upper_bound(make_receiver(rl), lc_band, POWER_W) / lc_band.bandwidth
        assert se == pytest.approx(expected, abs=0.05)
        rows.append(f"{se:.3f}")
    print(f"PASS criterion 1: upper bounds {rows} within +-0.05 of published")


def test_criterion_02_table1_lower_bounds(lc_band, lc_grid):
    rows = []
    for rl, expected, _, _ in TABLE1:
        lb = capacity_lower_bound(LC_MODEL, make_receiver(rl), lc_band, POWER_W, lc_grid)
        se = lb / lc_band.bandwidth
        assert se == pytest.approx(expected, rel=0.02)
        rows.append(f"{se:.4f}")
    print(f"PASS criterion 2: lower bounds {rows} within 2% of published")


def test_criterion_03_table1_spectral_efficiencies(lc_band, lc_grid):
    rows = []
    for rl, _, expected, _ in TABLE1:
        sol = solve_for_power(LC_MODEL, make_receiver(rl), lc_grid, POWER_W)
        se = sol.capacity / lc_band.bandwidth
        assert se == pytest.approx(expected, rel=0.03)
        rows.append(f"{se:.4f}")
    print(f"PASS criterion 3: water-filling SEs {rows} within 3% of published")


def test_criterion_04_sandwich(lc_band, lc_grid, tline_band, tline_grid):
    cases = []
    for model, band, grid in (
        (LC_MODEL, lc_band, lc_grid),
        (TLINE_MODEL, tline_band, tline_grid),
    ):
        for rl in (5e4, 5e5, 5e6):
            for scale in (0.2, 1.0, 5.0, 25.0):
                cases.append((model, band, grid, make_receiver(rl), scale * POWER_W))
    assert len(cases) >= 20
    for model, band, grid, rx, p_t in cases:
        cap = solve_for_power(model, rx, grid, p_t).capacity
        lower = capacity_lower_bound(model, rx, band, p_t, grid)
        upper = capacity_upper_bound(rx, band, p_t)
        assert lower < cap < upper  # strict: T = 300 K > 0
    print(f"PASS criterion 4: lower < C < upper at {len(cases)} operating points")


def test_criterion_05_pole_avoidance(lc_band, lc_grid, tline_band, tline_grid):
    rx = make_receiver(5e4)
    sol = solve_for_power(LC_MODEL, rx, lc_grid, POWER_W)
    pole = lc_grid.pole_nodes[0]
    assert sol.s_it[pole] == 0.0
    # contiguous unpowered neighborhood around the resonance node
    off = np.flatnonzero(~sol.support_mask)
    assert pole in off
    left = pole
    while left - 1 in off:
        left -= 1
    right = pole
    while right + 1 in off:
        right += 1
    assert right - left >= 10
    for model, band, grid in (
        (LC_MODEL, lc_band, lc_grid),
        (TLINE_MODEL, tline_band, tline_grid),
    ):
        delta = (band.hi - band.lo) / (BASE_POINTS - 1)
        for p in grid.nodes[grid.pole_nodes]:
            at_pole = ratio_alpha_beta(model, rx, p)
            for side in (p - delta, p + delta):
                if band.lo <= side <= band.hi:
                    assert at_pole < ratio_alpha_beta(model, rx, side)
    print(f"PASS criterion 5: zero power on [{left}, {right}] around resonance; "
          "every in-band pole is a ratio local minimum")


def test_criterion_06_monotonicity_and_concavity(lc_grid):
    rx = make_receiver(5e5)
    r = ratio_alpha_beta(LC_MODEL, rx, lc_grid.nodes)
    mus = np.geomspace(float(r.max()) * 0.999, float(r.min()) * 1.001, 50)
    sols = [solve_for_mu(LC_MODEL, rx, lc_grid, float(m)) for m in mus]
    powers = np.array([s.power for s in sols])
    caps = np.array([s.capacity for s in sols])
    assert np.all(np.diff(powers) >= 0)  # power nonincreasing in mu
    assert np.all(np.diff(caps) >= 0)  # capacity nonincreasing in mu
    keep = np.concatenate([[True], np.diff(powers) > 0])
    p, c = powers[keep], caps[keep]
    slopes = np.diff(c) / np.diff(p)
    assert np.all(np.diff(c) >= 0)
    assert np.all(slopes[1:] <= slopes[:-1] * (1 + 1e-6))
    print("PASS criterion 6: 50-point sweep monotone; capacity-power curve concave")


def test_criterion_07_quadrature_oracle(lc_band, lc_grid, tline_band, tline_grid):
    solutions = []
    for model, band, grid in (
        (LC_MODEL, lc_band, lc_grid),
        (TLINE_MODEL, tline_band, tline_grid),
    ):
        for rl in (5e4, 5e5, 5e6):
            rx = make_receiver(rl)
            for scale in (1.0, 10.0):
                sol = solve_for_power(model, rx, grid, scale * POWER_W)
                solutions.append((model, band, grid, rx, sol))
    worst = 0.0
    for model, band, grid, rx, sol in solutions:
        cap, power = riemann_capacity_power(model, rx, band, sol.mu, 4 * len(grid.nodes))
        worst = max(worst, abs(cap - sol.capacity) / sol.capacity,
                    abs(power - sol.power) / sol.power)
    assert worst <= 1e-3
    print(f"PASS criterion 7: Riemann recomputation of {len(solutions)} solutions, "
          f"max rel err {worst:.2e}")


def test_criterion_08_physics_oracles():
    # each bounce series against the channel's own reactances at complex omega:
    # the open line driven at x = 0 has V(0) = i*Z_R, I(0) = 1, V(L) = i*Z_RT,
    # I(L) = 0; the shorted line's V(x) is i*Z_RT of a copy tapped at x
    rng = np.random.default_rng(0)
    open_line = TLineOpenEnds(50.0, 3.0e8, 75.0)
    c0_over_l = open_line.wave_speed / open_line.length
    worst_open = 0.0
    for _ in range(20):
        omega = complex(rng.uniform(0, 20) * c0_over_l, -0.5 * c0_over_l)
        z_r, z_rt = impedances(open_line, omega)
        for x, v_c, i_c in ((0.0, z_r, 1.0), (open_line.length, z_rt, 0.0)):
            v_s, i_s = open_line_series_vi(open_line, omega, x, 64)
            worst_open = max(worst_open, abs(v_s - v_c) / abs(v_c), abs(i_s - i_c))
    assert worst_open <= 1e-6

    worst_short = 0.0
    for _ in range(10):
        omega = complex(rng.uniform(0.3, 15) * c0_over_l, -1e-3 * c0_over_l)
        x = rng.uniform(0.1, 0.9) * TLINE_MODEL.length
        v_s = shorted_line_series_v(TLINE_MODEL, omega, x, 40000)
        v_c = impedances(replace(TLINE_MODEL, x_receive=x), omega)[1]
        worst_short = max(worst_short, abs(v_s - v_c) / abs(v_c))
    assert worst_short <= 1e-4

    w0 = LC_MODEL.resonance
    worst_lc = 0.0
    for omega in (w0 * complex(1, -0.01), complex(0, -w0)):
        approx = lc_transfer_from_impulse(LC_MODEL, omega, 25 / abs(omega.imag), 0.01 / w0)
        exact = impedances(LC_MODEL, omega)[1]
        worst_lc = max(worst_lc, abs(approx - exact) / abs(exact))
    assert worst_lc <= 1e-3
    print(f"PASS criterion 8: series/reactances agreement (open {worst_open:.1e}, "
          f"shorted {worst_short:.1e}, LC {worst_lc:.1e})")


def test_criterion_09_structural_zeros():
    omegas = np.array([1.3e7, 8.9e8, 2.1e10])
    for boundary in (0.0, 75.0):
        for xt, xr in ((boundary, 31.0), (31.0, boundary)):
            model = TLineShortedTapped(50.0, 3.0e8, 75.0, xt, xr)
            assert np.all(eval_reactances(model, omegas).num_rt == 0.0)
    # V(x)/I_T is i*Z_RT of a copy tapped at x, at complex omega too
    omega = complex(5.5 * 3.0e8 / 75.0, -0.2 * 3.0e8 / 75.0)
    for x in (0.0, TLINE_MODEL.length):
        assert abs(impedances(replace(TLINE_MODEL, x_receive=x), omega)[1]) <= 1e-12
    print("PASS criterion 9: boundary taps give exactly zero coupling; V(0)=V(L)=0")


def test_criterion_10_capacity_grows_with_load(lc_band, lc_grid):
    caps = [
        solve_for_power(LC_MODEL, make_receiver(rl), lc_grid, POWER_W).capacity
        for rl in (5e4, 5e5, 5e6, 5e7)
    ]
    assert all(a < b for a, b in zip(caps, caps[1:]))
    print(f"PASS criterion 10: C strictly increasing in load resistance "
          f"({['%.3g' % c for c in caps]})")


def test_criterion_11_grid_convergence(lc_band):
    worst = 0.0
    for rl, _, _, _ in TABLE1:
        rx = make_receiver(rl)
        ses = [
            solve_for_power(LC_MODEL, rx, build_grid(lc_band, LC_MODEL, bp, REFINE), POWER_W).capacity
            for bp in (BASE_POINTS, 2 * BASE_POINTS)
        ]
        worst = max(worst, abs(ses[1] - ses[0]) / ses[0])
    assert worst < 1e-3
    print(f"PASS criterion 11: doubling base points shifts SEs by at most {worst:.2e}")


def test_criterion_12_capacity_gap_law(tline_band):
    # at high SNR each receive-side pole costs the flat-SNR allocation
    # |res_R,l|*(kappa - 1)/(R_L ln 2) b/s, with kappa**2 = 1 + 2 g**2 k T R_L/Q_A,
    # so sqrt(R_L)*(upper - C)/B tends to K = sum_l |res_R,l| sqrt(2 g**2 k T/Q_A)/(B ln 2),
    # res_R,l = -z0 c0 sin**2(l pi x_r/L)/L at the in-band modes l = 1498..1502
    model, rx = TLINE_MODEL, make_receiver(5e4)
    assert poles_in_interval(model, tline_band.lo, tline_band.hi).tolist() == [
        math.pi * model.wave_speed / model.length * l for l in range(1498, 1503)]
    residues = sum(model.char_impedance * model.wave_speed / model.length
                   * math.sin(l * math.pi * model.x_receive / model.length) ** 2
                   for l in range(1498, 1503))
    noise = 2 * rx.amp_gain**2 * BOLTZMANN * rx.temperature / rx.amp_noise_density
    k = residues * math.sqrt(noise) / (tline_band.bandwidth * math.log(2))
    assert k == pytest.approx(378.2802, abs=1e-4)
    # the loaded poles' half-widths |res_R,l|/R_L are far below the default
    # grid's finest spacing, so the law needs a fine grid
    grid = build_grid(tline_band, model, 131072, 24)
    assert len(grid.nodes) == 133557
    rows = []
    for rl in (5e10, 5e12):
        rx = make_receiver(rl)
        upper = capacity_upper_bound(rx, tline_band, POWER_W)
        for value in (solve_for_power(model, rx, grid, POWER_W).capacity,
                      capacity_lower_bound(model, rx, tline_band, POWER_W, grid)):
            gap = math.sqrt(rl) * (upper - value) / tline_band.bandwidth
            assert gap == pytest.approx(k, rel=1e-3)
            rows.append(f"{gap:.2f}")
    print(f"PASS criterion 12: sqrt(R_L)*(upper - C, lower)/B {rows} within 0.1% of K = {k:.2f}")


# the continuous LC problem's water-filling spectral efficiencies at R_L = 5e4,
# 5e5, 5e6 (mpmath 30-digit quadrature split at the pole and the support edges)
CONTINUOUS_C = (0.499980609, 3.673112672, 9.681265596)


@pytest.mark.parametrize("rl, amp_noise", [(5e4, QA), (5e5, QA), (5e6, QA), (5e4, 0.0)])
def test_continuous_lc_lower_bound_is_its_quadrature(lc_band, rl, amp_noise):
    rx = make_receiver(rl, amp_noise=amp_noise)
    closed = lc_lower_bound_continuous(LC_MODEL, rx, lc_band, POWER_W)
    with mpmath.workdps(30):
        e, f = lc_quadratics(LC_MODEL, rx, lc_band, POWER_W)
        def integrand(w):  # log(F/E), of which the bound is the integral over 2 pi ln 2
            return mpmath.log(mpmath.polyval(f, w * w) / mpmath.polyval(e, w * w))
        quad = mpmath.quad(integrand, [lc_band.lo, LC_MODEL.resonance, lc_band.hi])
        quad /= 2 * mpmath.pi * mpmath.log(2)
    assert abs(closed / quad - 1) <= 1e-12


@pytest.mark.parametrize("base_points, tol", [(BASE_POINTS, 2e-5), (65536, 1e-8)])
def test_criterion_15_table1_against_continuous_lc(lc_band, base_points, tol):
    grid = build_grid(lc_band, LC_MODEL, base_points, REFINE)
    worst = 0.0
    for (rl, _, _, _), c in zip(TABLE1, CONTINUOUS_C):
        rx = make_receiver(rl)
        lower = lc_lower_bound_continuous(LC_MODEL, rx, lc_band, POWER_W) / lc_band.bandwidth
        for got, want in ((capacity_lower_bound(LC_MODEL, rx, lc_band, POWER_W, grid), lower),
                          (solve_for_power(LC_MODEL, rx, grid, POWER_W).capacity, c)):
            worst = max(worst, abs(got / lc_band.bandwidth / want - 1))
    assert worst <= tol
    print(f"PASS criterion 15: {base_points} base points, lower bound and C within "
          f"{worst:.1e} of the continuous LC problem")
