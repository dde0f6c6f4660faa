import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclink import (
    Band,
    TLineShortedTapped,
    alpha,
    beta,
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
from rclink.cli import main
from rclink.config import DEFAULT_TLINE_CHANNEL, default_config, serialize_config

from conftest import LC_MODEL, POWER_W, TLINE_MODEL, make_receiver
from oracles import riemann_capacity_power, water_level_by_loop


@pytest.fixture(scope="module")
def lc_grid(lc_band):
    return build_grid(lc_band, LC_MODEL, 512, 6)


@pytest.fixture(scope="module")
def tline_grid(tline_band):
    return build_grid(tline_band, TLINE_MODEL, 512, 6)


class TestBuildGrid:
    def test_lc_band_has_one_pole_node(self, lc_grid):
        assert len(lc_grid.pole_nodes) == 1
        assert lc_grid.nodes[lc_grid.pole_nodes[0]] == LC_MODEL.resonance

    def test_tline_band_pole_nodes(self, tline_grid, tline_band):
        poles = poles_in_interval(TLINE_MODEL, tline_band.lo, tline_band.hi)
        assert len(tline_grid.pole_nodes) == len(poles) == 5
        np.testing.assert_array_equal(tline_grid.nodes[tline_grid.pole_nodes], poles)

    def test_band_between_poles_is_uniform(self):
        step = math.pi * TLINE_MODEL.wave_speed / TLINE_MODEL.length
        band = Band(1500.5 * step, step / (8 * math.pi))
        grid = build_grid(band, TLINE_MODEL, 64, 6)
        assert len(grid.pole_nodes) == 0
        np.testing.assert_allclose(np.diff(grid.nodes), np.diff(grid.nodes)[0], rtol=1e-9)

    def test_quadrature_weights(self, lc_grid, lc_band):
        assert np.all(lc_grid.weights > 0)
        assert np.all(np.diff(lc_grid.nodes) > 0)
        assert np.sum(lc_grid.weights) == pytest.approx(2 * math.pi * lc_band.bandwidth, rel=1e-12)
        assert lc_grid.nodes[0] >= lc_band.lo and lc_grid.nodes[-1] <= lc_band.hi

    @pytest.mark.parametrize("case, count, digest, pole_nodes", [
        ("lc", 633, "96211c93ebba5e85", [316]),
        ("tline5", 1197, "a02f38769d0c00b8", [122, 365, 598, 831, 1074]),
        ("tline501", 74599, "332b68e9a3fbae3c", None),
    ], ids=["lc", "tline5", "tline501"])
    def test_nodes_pinned(self, lc_band, tline_band, case, count, digest, pole_nodes):
        # sha256 prefixes of nodes.tobytes(): the grid must stay bit-identical
        # to the one these reference capacities were computed on
        if case == "lc":
            model, band, base_points = LC_MODEL, lc_band, 512
        elif case == "tline5":
            d = DEFAULT_TLINE_CHANNEL
            model = TLineShortedTapped(d["char_impedance_ohm"], d["wave_speed_m_s"],
                                       d["length_m"], d["x_transmit_m"], d["x_receive_m"])
            band, base_points = tline_band, 512
        else:
            length = 501 * 3.0e8 / (2 * tline_band.bandwidth)
            model = TLineShortedTapped(50.0, 3.0e8, length, 0.31 * length, 0.62 * length)
            band, base_points = tline_band, 8 * 501
        grid = build_grid(band, model, base_points, 6)
        assert len(grid.nodes) == count
        assert hashlib.sha256(grid.nodes.tobytes()).hexdigest()[:16] == digest
        if pole_nodes is None:
            assert len(grid.pole_nodes) == 501
        else:
            assert grid.pole_nodes.tolist() == pole_nodes

    def test_base_points_floor(self, lc_band):
        with pytest.raises(ValueError):
            build_grid(lc_band, LC_MODEL, 8, 6)

    def test_refine_levels_limit(self, lc_band):
        # level 29 is the finest whose spacing h/2**29 stays above the
        # near-duplicate threshold h*1e-9
        grid = build_grid(lc_band, LC_MODEL, 512, 29)
        assert len(grid.nodes) == 1093 and np.all(np.diff(grid.nodes) > 0)
        for levels in (-1, 30, 2000):
            with pytest.raises(ValueError, match="refine_levels"):
                build_grid(lc_band, LC_MODEL, 512, levels)

    def test_grid_convergence_at_reference_points(self, lc_band):
        for rl in (5e4, 5e6):
            rx = make_receiver(rl)
            caps = [
                solve_for_power(LC_MODEL, rx, build_grid(lc_band, LC_MODEL, bp, 6), POWER_W).capacity
                for bp in (512, 1024)
            ]
            assert abs(caps[1] - caps[0]) / caps[0] < 1e-3


class TestSolveForMu:
    def test_empty_support_above_max_ratio(self, lc_grid, receiver):
        mu = float(np.max(ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes))) * 1.01
        sol = solve_for_mu(LC_MODEL, receiver, lc_grid, mu)
        assert sol.capacity == 0.0 and sol.power == 0.0
        assert not np.any(sol.support_mask)

    def test_pole_node_unpowered(self, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        pole = lc_grid.pole_nodes[0]
        # the pole is the global minimum of alpha/beta over the band
        assert np.argmin(r) == pole
        for mu in np.geomspace(r.min() * 1.001, r.max() * 0.999, 10):
            sol = solve_for_mu(LC_MODEL, receiver, lc_grid, float(mu))
            if not np.all(sol.support_mask):
                assert sol.s_it[pole] == 0.0

    def test_monotone_in_mu(self, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        mu1, mu2 = float(r.min()) * 2, float(r.min()) * 20
        s1 = solve_for_mu(LC_MODEL, receiver, lc_grid, mu1)
        s2 = solve_for_mu(LC_MODEL, receiver, lc_grid, mu2)
        assert s1.power >= s2.power and s1.capacity >= s2.capacity

    def test_water_level_on_support(self, lc_grid, receiver):
        sol = solve_for_power(LC_MODEL, receiver, lc_grid, POWER_W)
        a = alpha(LC_MODEL, receiver, lc_grid.nodes)[sol.support_mask]
        b = beta(LC_MODEL, receiver, lc_grid.nodes)[sol.support_mask]
        level = sol.mu * b * (sol.s_it[sol.support_mask] + 1 / a)
        np.testing.assert_allclose(level, 1.0, rtol=1e-10)

    def test_mu_must_be_positive(self, lc_grid, receiver):
        with pytest.raises(ValueError):
            solve_for_mu(LC_MODEL, receiver, lc_grid, 0.0)


# NaN passes every "<= 0" test, and an infinite budget or multiplier has no
# finite answer
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("solver", [
    lambda grid, rx, v: solve_for_mu(LC_MODEL, rx, grid, v),
    lambda grid, rx, v: solve_for_power(LC_MODEL, rx, grid, v),
    lambda grid, rx, v: sweep(LC_MODEL, rx, grid, [v]),
    lambda grid, rx, v: sweep(LC_MODEL, rx, grid, [1e30, v]),
], ids=["solve-for-mu", "solve-for-power", "sweep", "sweep-second"])
def test_non_finite_refused(lc_grid, receiver, solver, bad):
    with pytest.raises(ValueError, match="finite"):
        solver(lc_grid, receiver, bad)


class TestSolveForPower:
    def test_reference_spectral_efficiencies(self, lc_band, lc_grid):
        for rl, expected in ((5e4, 0.500), (5e6, 9.70)):
            sol = solve_for_power(LC_MODEL, make_receiver(rl), lc_grid, POWER_W)
            assert sol.capacity / lc_band.bandwidth == pytest.approx(expected, rel=0.03)

    @pytest.mark.parametrize("p_t", [POWER_W / 100, POWER_W, 100 * POWER_W, 1e-6])
    def test_power_budget_met_exactly(self, lc_grid, p_t):
        for rl in (5e4, 5e6):
            sol = solve_for_power(LC_MODEL, make_receiver(rl), lc_grid, p_t)
            assert abs(sol.power - p_t) / p_t <= 1e-12
            if p_t == 1e-6:  # powers the whole band at every load resistance
                assert np.all(sol.support_mask)

    def test_small_power_limit(self, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        sol = solve_for_power(LC_MODEL, receiver, lc_grid, POWER_W * 1e-8)
        assert sol.capacity > 0
        # support shrinks towards the argmax of alpha/beta
        assert np.sum(sol.support_mask) < np.sum(r > r.min() * 2)
        assert sol.support_mask[np.argmax(r)]

    def test_large_power_solvable(self, lc_grid, receiver):
        sol = solve_for_power(LC_MODEL, receiver, lc_grid, 1e-6)
        assert np.all(sol.support_mask)
        assert abs(sol.power - 1e-6) / 1e-6 <= 1e-6

    def test_rejects_nonpositive_power(self, lc_grid, receiver):
        with pytest.raises(ValueError):
            solve_for_power(LC_MODEL, receiver, lc_grid, 0.0)

    def test_derivative_of_capacity_is_mu(self, lc_grid, receiver):
        # the multiplier convention of the support rule makes dC/dP = mu*log2(e)
        for p_t in (POWER_W, 10 * POWER_W, 100 * POWER_W):
            sol = solve_for_power(LC_MODEL, receiver, lc_grid, p_t)
            dp = p_t * 1e-4
            c_hi = solve_for_power(LC_MODEL, receiver, lc_grid, p_t + dp).capacity
            c_lo = solve_for_power(LC_MODEL, receiver, lc_grid, p_t - dp).capacity
            slope = (c_hi - c_lo) / (2 * dp)
            assert slope == pytest.approx(sol.mu * math.log2(math.e), rel=0.05)


class TestSweep:
    def test_sweep_properties(self, lc_band, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        mus = list(np.geomspace(r.max() * 0.99, r.min() * 1.01, 12))
        result = sweep(LC_MODEL, receiver, lc_grid, mus)
        powers = [p.power for p in result.points]
        assert all(a <= b for a, b in zip(powers, powers[1:]))
        for p in result.points:
            if p.power == 0:
                continue
            lb = capacity_lower_bound(LC_MODEL, receiver, lc_band, p.power, lc_grid)
            ub = capacity_upper_bound(receiver, lc_band, p.power)
            assert lb <= p.capacity <= ub
        assert np.all(result.termination.support_mask)

    def test_default_multipliers_span_the_ratio(self, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        result = sweep(LC_MODEL, receiver, lc_grid)
        mus = [p.mu for p in result.points]
        assert len(mus) == 50
        assert mus[0] == pytest.approx(r.max(), rel=1e-8) and mus[-1] == pytest.approx(r.min())
        assert result.points[0].power > 0
        assert np.all(result.termination.support_mask)

    def test_rejects_unsorted(self, lc_grid, receiver):
        with pytest.raises(ValueError):
            sweep(LC_MODEL, receiver, lc_grid, [1e18, 1e19])
        with pytest.raises(ValueError):
            sweep(LC_MODEL, receiver, lc_grid, [1e19, -1.0])


class TestQuadratureOracle:
    @pytest.mark.parametrize("rl", [5e4, 5e5, 5e6])
    def test_lc_riemann_recompute(self, lc_band, lc_grid, rl):
        rx = make_receiver(rl)
        sol = solve_for_power(LC_MODEL, rx, lc_grid, POWER_W)
        cap, power = riemann_capacity_power(LC_MODEL, rx, lc_band, sol.mu, 4 * len(lc_grid.nodes))
        assert cap == pytest.approx(sol.capacity, rel=1e-3)
        assert power == pytest.approx(sol.power, rel=1e-3)

    def test_tline_riemann_recompute(self, tline_band, tline_grid):
        rx = make_receiver(5e5)
        sol = solve_for_power(TLINE_MODEL, rx, tline_grid, POWER_W)
        cap, power = riemann_capacity_power(
            TLINE_MODEL, rx, tline_band, sol.mu, 4 * len(tline_grid.nodes))
        assert cap == pytest.approx(sol.capacity, rel=1e-3)
        assert power == pytest.approx(sol.power, rel=1e-3)


class TestRandomShortedLines:
    """Grid and solver properties over random line lengths, taps and budgets."""

    @settings(max_examples=40, deadline=None)
    @given(
        poles=st.floats(0.5, 120.0),
        taps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        points_per_pole=st.sampled_from([8, 12, 32]),
        rl=st.floats(5e4, 5e6),
        power_scale=st.floats(0.2, 25.0),
    )
    def test_grid_and_kkt(self, tline_band, poles, taps, points_per_pole, rl, power_scale):
        # about `poles` in-band poles; at 8 base points per pole the refinement
        # windows (+-10 base spacings) of neighbouring poles overlap
        length = poles * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        base_points = max(16, round(points_per_pole * poles))
        grid = build_grid(tline_band, model, base_points, 6)

        assert np.all(np.diff(grid.nodes) > 0)
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes],
                                      poles_in_interval(model, tline_band.lo, tline_band.hi))
        assert np.sum(grid.weights) == pytest.approx(2 * math.pi * tline_band.bandwidth,
                                                     rel=1e-12)

        rx = make_receiver(rl)
        p_t = power_scale * POWER_W
        sol = solve_for_power(model, rx, grid, p_t)
        r = ratio_alpha_beta(model, rx, grid.nodes)
        valid = eval_reactances(model, grid.nodes).num_rt != 0
        assert np.all(r[sol.support_mask] > sol.mu)
        assert np.all(r[valid & ~sol.support_mask] <= sol.mu)
        assert abs(sol.power - p_t) / p_t <= 1e-12
        level = water_level_by_loop(r[valid], grid.weights[valid], p_t)
        np.testing.assert_array_equal(sol.support_mask, valid & (r >= level))
        # the water level is the budget's inverse: power falls through p_t at mu
        assert solve_for_mu(model, rx, grid, sol.mu * (1 + 1e-9)).power < p_t
        assert solve_for_mu(model, rx, grid, sol.mu * (1 - 1e-9)).power > p_t
        # the sandwich, wherever the grid resolves the lower-bound integral
        try:
            lower = capacity_lower_bound(model, rx, tline_band, p_t, grid)
        except ValueError as exc:
            assert "too coarse" in str(exc)
        else:
            assert lower < sol.capacity < capacity_upper_bound(rx, tline_band, p_t)

    @settings(max_examples=25, deadline=None)
    @given(
        poles=st.floats(0.5, 120.0),
        taps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        points_per_pole=st.sampled_from([8, 12, 32]),
        rl=st.floats(5e4, 5e6),
    )
    def test_breakpoints_exact(self, tline_band, poles, taps, points_per_pole, rl):
        length = poles * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        grid = build_grid(tline_band, model, max(16, round(points_per_pole * poles)), 6)
        assert_breakpoints_exact(model, make_receiver(rl), grid)


def assert_breakpoints_exact(model, rx, grid):
    """Budgets at the breakpoints of the capacity-power curve: at p_j, the power
    of water level r_j (a coupled node's ratio), solve_for_power returns mu = r_j
    and the capacity of solve_for_mu(r_j).  Along the breakpoints C rises and is
    concave, its chord slopes bracketed by the levels, as dC/dP = mu*log2(e)."""
    ratio = ratio_alpha_beta(model, rx, grid.nodes)
    coupled = eval_reactances(model, grid.nodes).num_rt != 0
    r = np.unique(ratio[coupled])[::-1]
    levels, caps, powers = [], [], []
    for r_j in r[np.unique(np.linspace(1, len(r) - 1, 12).astype(int))]:
        ref = solve_for_mu(model, rx, grid, float(r_j))
        if ref.power == 0:  # r_j so near the top that 1/r_j - 1/r_0 rounds to 0
            continue
        sol = solve_for_power(model, rx, grid, ref.power)
        assert abs(sol.mu - r_j) <= 1e-12 * r_j
        # 1e-12 relative, plus what that tolerance on the level moves C by,
        # dC/dmu = -W_j/(mu ln 2) with W_j the support's weight: where the
        # ratio plateaus, C is small against W_j and p_j carries cancellation
        w_j = np.sum(grid.weights[coupled & (ratio >= r_j)]) / (2 * math.pi)
        assert abs(sol.capacity - ref.capacity) <= 1e-12 * (ref.capacity + w_j / math.log(2))
        levels.append(r_j)
        caps.append(sol.capacity)
        powers.append(sol.power)
    levels = np.array(levels)
    slopes = np.diff(caps) / np.diff(powers) / math.log2(math.e)
    assert np.all(np.diff(caps) > 0) and np.all(np.diff(slopes) < 0)
    assert np.all((levels[1:] <= slopes) & (slopes <= levels[:-1]))


@pytest.mark.parametrize("rl", [5e4, 5e5, 5e6])
def test_lc_breakpoints_exact(lc_grid, rl):
    assert_breakpoints_exact(LC_MODEL, make_receiver(rl), lc_grid)


class TestUncoupledChannel:
    """A tap on a shorted end: the channel couples nowhere, at any frequency."""

    @pytest.mark.parametrize("tap", ["x_transmit_m", "x_receive_m"])
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_refused_by_every_solver(self, tmp_path, capsys, tline_band, tap, end):
        doc = serialize_config(default_config())
        doc["channel"] = dict(DEFAULT_TLINE_CHANNEL)
        doc["channel"][tap] = 0.0 if end == "start" else doc["channel"]["length_m"]
        doc["band"] = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
        model = TLineShortedTapped(*(doc["channel"][k] for k in TLineShortedTapped.keys))
        rx = make_receiver(5e4)
        grid = build_grid(tline_band, model, 512, 6)

        assert capacity_lower_bound(model, rx, tline_band, POWER_W, grid) == 0.0
        for solve, arg in ((solve_for_mu, 1e15), (solve_for_power, POWER_W), (sweep, None)):
            with pytest.raises(ValueError, match="no coupling"):
                solve(model, rx, grid, arg)

        config = tmp_path / "dead.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("sweep", "waterfill", "table1"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                "config error: channel has no coupling anywhere in the band\n"
        assert list(tmp_path.iterdir()) == [config]
