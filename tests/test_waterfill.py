import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclink import (
    Band,
    TLineOpenEnds,
    TLineShortedTapped,
    alpha,
    beta,
    build_grid,
    capacity_lower_bound,
    capacity_upper_bound,
    eval_reactances,
    output_psd,
    poles_in_interval,
    ratio_alpha_beta,
    solve_for_mu,
    solve_for_power,
    sweep,
    transfer_magnitude,
)
from rclink.cli import main
from rclink.linkmodel import _bits
from rclink.waterfill import _water_level
from rclink.config import DEFAULT_TLINE_CHANNEL, default_config, load_config, serialize_config

from conftest import LC_MODEL, POWER_W, TLINE_MODEL, make_receiver
from oracles import grid_nodes_by_full_broadcast, riemann_capacity_power, water_level_by_loop


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
        assert np.sum(lc_grid.weights) == pytest.approx(lc_band.bandwidth, rel=1e-12)
        assert lc_grid.nodes[0] >= lc_band.lo and lc_grid.nodes[-1] <= lc_band.hi

    @pytest.mark.parametrize("case, count, digest, pole_nodes", [
        ("lc", 633, "96211c93ebba5e85", [316]),
        ("tline5", 1197, "a02f38769d0c00b8", [122, 365, 598, 831, 1074]),
        ("tline501", 74629, "f946a4c630dc03ed", None),
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

    def test_every_pole_is_its_own_node(self, tline_band):
        # 40 in-band poles of a 600 m line, the lowest on band.lo: inserted into the
        # grid, each is a node at any base-point count and level.  16 and 40 base
        # points with no refinement gain a node per pole off the base nodes (5 and
        # 1 poles are on them); 41 base points hold every pole, and one level of
        # refinement puts each at the centre of its window
        length = 600.0
        model = TLineShortedTapped(50.0, 3.0e8, length, length / 7, 8 * length / 13)
        poles = poles_in_interval(model, tline_band.lo, tline_band.hi)
        assert len(poles) == 40
        top = math.pi * model.wave_speed / model.length * 12020
        for base_points, levels, count in ((16, 0, 51), (40, 0, 79), (41, 0, 41), (16, 1, 121)):
            grid = build_grid(tline_band, model, base_points, levels)
            assert len(grid.nodes) == count
            assert np.all(np.diff(grid.nodes) > 0) and np.all(np.diff(grid.pole_nodes) > 0)
            np.testing.assert_array_equal(grid.nodes[grid.pole_nodes], poles)
            # the top pole, 12020*pi*c0/L, is an ulp above the rounded band.hi:
            # it is not in the band, and the last node is band.hi
            assert top > tline_band.hi and grid.nodes[-1] == tline_band.hi

    @pytest.mark.parametrize("levels", [0, 6])
    @pytest.mark.parametrize("inset", [3e-13, -5e-14], ids=["outside", "inside"])
    def test_poles_by_the_band_edges_move_no_edge(self, levels, inset):
        # poles 3e-13 relative outside each band edge, inside the pole ladder's
        # index tolerance, or 5e-14 inside, under the near-duplicate distance
        # h*1e-9, where each sits on its edge node: the edges are nodes, and the
        # weights span the band
        step = math.pi * TLINE_MODEL.wave_speed / TLINE_MODEL.length
        lo, hi = 1000 * step * (1 + inset), 1005 * step * (1 - inset)
        band = Band((lo + hi) / 2, (hi - lo) / (2 * math.pi))
        grid = build_grid(band, TLINE_MODEL, 64, levels)
        assert grid.nodes[0] == band.lo and grid.nodes[-1] == band.hi
        assert abs(math.fsum(grid.weights) / band.bandwidth - 1) <= 1e-12
        inner = step * np.arange(1001, 1005)
        pole_values = inner if inset > 0 else [band.lo, *inner, band.hi]
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes], pole_values)

    def test_unrefined_pole_by_an_edge_is_a_node(self):
        # pole 1000 of the reference line 0.3h above band.lo, nearer the edge node
        # than any other: with no refinement it is node 1, not merged into the edge
        step = math.pi * TLINE_MODEL.wave_speed / TLINE_MODEL.length
        bandwidth = 3.2e7
        h = 2 * math.pi * bandwidth / 63
        band = Band(1000 * step - 0.3 * h + math.pi * bandwidth, bandwidth)
        grid = build_grid(band, TLINE_MODEL, 64, 0)
        poles = poles_in_interval(TLINE_MODEL, band.lo, band.hi)
        assert poles[0] == 1000 * step and grid.pole_nodes[0] == 1
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes], poles)
        assert grid.nodes[0] == band.lo and np.all(np.diff(grid.nodes) > 0)

    @pytest.mark.parametrize("outside", [1e-9, 1.0])
    def test_pole_just_above_the_band_gets_a_window(self, outside):
        # the 600 m line's pole 12020 sits `outside` base spacings above band.hi,
        # and its log singularity reaches into the band: with no window around
        # it, the base node at band.hi, 1e-9 h from it, gets the lower bound
        # refused and puts C 9.1e-4 off the fine grid's
        config = load_config(Path(__file__).parent / "tline_600m.json")
        model, rx = config.channel, config.receiver
        top = math.pi * model.wave_speed / model.length * 12020
        h = 2 * math.pi * config.band.bandwidth / 511
        band = Band(top - outside * h - math.pi * config.band.bandwidth, config.band.bandwidth)
        assert poles_in_interval(model, band.hi, band.hi + h).tolist() == [top]
        fine = build_grid(band, model, 64 * 512, 12)
        for grid_of in (lambda g: capacity_lower_bound(model, rx, band, POWER_W, g),
                        lambda g: solve_for_power(model, rx, g, POWER_W).capacity):
            reference = grid_of(fine)
            assert abs(grid_of(build_grid(band, model)) - reference) <= 2e-4 * reference

    def test_pole_an_ulp_inside_an_edge_sits_on_the_edge_node(self, tline_band):
        # pole 5000 of this line is one ulp above band.lo: the near-duplicate
        # filter drops it or the edge node, and writing the pole must not move the edge
        length = 250.41736227045072
        model = TLineShortedTapped(50.0, 3.0e8, length, length / 7, 8 * length / 13)
        poles = poles_in_interval(model, tline_band.lo, tline_band.hi)
        assert poles[0] == np.nextafter(tline_band.lo, np.inf)
        grid = build_grid(tline_band, model)
        assert grid.nodes[0] == tline_band.lo and grid.nodes[-1] == tline_band.hi
        assert grid.pole_nodes[0] == 0
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes[1:]], poles[1:])
        assert abs(math.fsum(grid.weights) / tline_band.bandwidth - 1) <= 1e-12

    def test_base_points_floor(self, lc_band):
        with pytest.raises(ValueError, match="base_points must be at least 16"):
            build_grid(lc_band, LC_MODEL, 8, 6)
        # a count is an integer, never a bool or a float, even an integral one
        for base_points in (512.0, True, 16.5):
            with pytest.raises(ValueError, match="^base_points must be an integer"):
                build_grid(lc_band, LC_MODEL, base_points, 6)
        assert len(build_grid(lc_band, LC_MODEL, np.int64(512), 6).nodes) == 633

    @pytest.mark.parametrize("case", ["lc", "tline5", "tline600m"])
    def test_reference_grids_keep_512_base_points(self, lc_band, tline_band, case):
        # 1, 5 and 40 in-band poles: 8 base points per pole stay below the floor
        # of 512, so every reference artifact keeps its grid node for node
        if case == "lc":
            model, band = LC_MODEL, lc_band
        elif case == "tline5":
            model, band = TLINE_MODEL, tline_band
        else:
            config = load_config(Path(__file__).parent / "tline_600m.json")
            model, band = config.channel, config.band
        grid, fixed = build_grid(band, model), build_grid(band, model, 512)
        for got, expected in ((grid.nodes, fixed.nodes), (grid.weights, fixed.weights),
                              (grid.pole_nodes, fixed.pole_nodes)):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=10, deadline=None)
    @given(spans=st.integers(1, 4999), phase=st.floats(0.0, 1.0, exclude_max=True),
           taps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
    @example(spans=1, phase=math.nextafter(1.0, 0.0), taps=(0.3, 0.7))
    def test_no_pole_count_refused(self, tline_band, spans, phase, taps):
        # the band spans `spans + phase` pole spacings, so 1 to 5,000 in-band poles:
        # the grid that sizes itself is never refused at the default config.  A
        # phase just under 1 rounds the span up to spans + 1, and for an odd `spans`
        # that band has a pole on each edge, spans + 2 in all (the example)
        length = (spans + phase) * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, *(t * length for t in taps))
        grid = build_grid(tline_band, model)
        assert spans <= len(grid.pole_nodes) <= math.floor(spans + phase) + 1
        config = default_config()
        for rl in config.load_resistances:
            rx = replace(config.receiver, load_resistance=rl)
            lower = capacity_lower_bound(model, rx, tline_band, config.power_w, grid)
            capacity = solve_for_power(model, rx, grid, config.power_w).capacity
            assert 0 < lower < capacity < capacity_upper_bound(rx, tline_band, config.power_w)

    def test_refine_levels_limit(self, lc_band):
        # level 29 is the finest whose spacing h/2**29 stays above the
        # near-duplicate threshold h*1e-9
        grid = build_grid(lc_band, LC_MODEL, 512, 29)
        assert len(grid.nodes) == 1093 and np.all(np.diff(grid.nodes) > 0)
        for levels in (-1, 30, 2000):
            with pytest.raises(ValueError, match="refine_levels"):
                build_grid(lc_band, LC_MODEL, 512, levels)
        # 6.5 built a 7-level grid (653 nodes) and True a 1-level one
        for levels in (6.5, 6.0, True, False, None):
            with pytest.raises(ValueError, match="^refine_levels must be an integer"):
                build_grid(lc_band, LC_MODEL, 512, levels)
        assert len(build_grid(lc_band, LC_MODEL, 512, np.int64(6)).nodes) == 633

    def test_grid_convergence_at_reference_points(self, lc_band):
        for rl in (5e4, 5e6):
            rx = make_receiver(rl)
            caps = [
                solve_for_power(LC_MODEL, rx, build_grid(lc_band, LC_MODEL, bp, 6), POWER_W).capacity
                for bp in (512, 1024)
            ]
            assert abs(caps[1] - caps[0]) / caps[0] < 1e-3

    def test_keeps_no_grid_sized_temporary(self):
        # 298,000 nodes: one float array of the grid is 2.4 MB.  The shorted line's
        # reactances hold k, one phase buffer and the two numerators, which the
        # buffer's last sine joins as denom; the grid adds its nodes and weights
        config = load_config(Path(__file__).parent / "tline_2000_poles.json")
        grid = build_grid(config.band, config.channel, refine_levels=config.refine_levels)
        nodes = grid.nodes.copy()
        for limit, call in ((4.5, lambda: eval_reactances(config.channel, nodes)),
                            (6.5, lambda: build_grid(config.band, config.channel,
                                                     refine_levels=config.refine_levels))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * nodes.nbytes


class TestGridCarriesItsChannel:
    """A grid holds its channel's receive-side reactances; solvers read only them."""

    EVERY_KIND = pytest.mark.parametrize(
        "model", [LC_MODEL, TLineOpenEnds(50.0, 3.0e8, 75.0), TLINE_MODEL],
        ids=["lc", "open", "shorted"])

    @EVERY_KIND
    def test_sample_is_the_channel_at_the_nodes(self, lc_band, tline_band, model):
        grid = build_grid(lc_band if model is LC_MODEL else tline_band, model, 512, 6)
        s = eval_reactances(model, grid.nodes)
        assert grid.channel is model
        for field in ("num_r", "num_rt", "denom"):
            assert getattr(grid.sample, field).tobytes() == getattr(s, field).tobytes()

    @EVERY_KIND
    def test_arrays_are_read_only(self, lc_band, tline_band, model):
        # the LC sample holds one array as both num_r and num_rt, so a write
        # into either would silently change every later result on the grid
        grid = build_grid(lc_band if model is LC_MODEL else tline_band, model, 512, 6)
        arrays = {"nodes": grid.nodes, "weights": grid.weights, "pole_nodes": grid.pole_nodes,
                  "num_r": grid.sample.num_r, "num_rt": grid.sample.num_rt,
                  "denom": grid.sample.denom}
        for name, a in arrays.items():
            before = a.copy()
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0
            assert a.tobytes() == before.tobytes(), name

    SOLVERS = {
        "solve-for-mu": lambda model, rx, grid, band: solve_for_mu(model, rx, grid, 1e15),
        "solve-for-power": lambda model, rx, grid, band: solve_for_power(model, rx, grid, POWER_W),
        "sweep": lambda model, rx, grid, band: sweep(model, rx, grid),
        "lower-bound": lambda model, rx, grid, band: capacity_lower_bound(
            model, rx, band, POWER_W, grid),
    }

    @pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS)
    def test_grid_of_another_channel_refused(self, tline_grid, tline_band, receiver, solve):
        for other in (replace(TLINE_MODEL, x_receive=TLINE_MODEL.x_receive / 2), LC_MODEL):
            with pytest.raises(ValueError, match="grid was built for another channel"):
                solve(other, receiver, tline_grid, tline_band)
        # an equal channel is the same channel
        solve(replace(TLINE_MODEL), receiver, tline_grid, tline_band)

    # each public functional read on a grid, as a tuple of arrays
    FUNCTIONALS = {
        "transfer-magnitude": lambda model, rx, omega, s_it: (transfer_magnitude(model, rx, omega),),
        "alpha": lambda model, rx, omega, s_it: (alpha(model, rx, omega),),
        "beta": lambda model, rx, omega, s_it: (beta(model, rx, omega),),
        "ratio": lambda model, rx, omega, s_it: (ratio_alpha_beta(model, rx, omega),),
        "output-psd": lambda model, rx, omega, s_it: output_psd(model, rx, omega, s_it),
    }

    @EVERY_KIND
    @pytest.mark.parametrize("read", FUNCTIONALS.values(), ids=FUNCTIONALS)
    def test_functional_reads_the_grid(self, lc_band, tline_band, receiver, model, read):
        grid = build_grid(lc_band if model is LC_MODEL else tline_band, model, 512, 6)
        s_it = solve_for_power(model, receiver, grid, POWER_W).s_it
        arrays = (grid.nodes, grid.weights, grid.pole_nodes, *vars(grid.sample).values())
        before = [a.tobytes() for a in arrays]
        on_grid = read(model, receiver, grid, s_it)
        at_nodes = read(model, receiver, grid.nodes, s_it)
        for a, b in zip(on_grid, at_nodes, strict=True):
            assert a.tobytes() == b.tobytes()
        assert [a.tobytes() for a in arrays] == before

    # a scalar omega runs as a 0-d array: the bits of the same omega in an array,
    # as numpy scalars
    SCALAR_READERS = {
        "eval-reactances": lambda model, rx, omega, s_it: tuple(
            vars(eval_reactances(model, omega)).values()),
        **FUNCTIONALS,
    }

    @EVERY_KIND
    @pytest.mark.parametrize("read", SCALAR_READERS.values(), ids=SCALAR_READERS)
    def test_scalar_omega_gives_the_array_bits(self, receiver, model, read):
        for omega in np.random.default_rng(23).uniform(1e8, 4e10, 3000):
            at_scalar = read(model, receiver, float(omega), 1e-18)
            in_array = read(model, receiver, np.array([omega]), 1e-18)
            for a, b in zip(at_scalar, in_array, strict=True):
                assert type(a) is np.float64 and a.tobytes() == b.tobytes(), omega

    @EVERY_KIND
    @pytest.mark.parametrize("read", FUNCTIONALS.values(), ids=FUNCTIONALS)
    def test_functional_refuses_another_channels_grid(self, lc_band, tline_band, receiver,
                                                      model, read):
        grid = build_grid(lc_band if model is LC_MODEL else tline_band, model, 512, 6)
        other = replace(LC_MODEL, inductance=2 * LC_MODEL.inductance) if model is LC_MODEL \
            else LC_MODEL
        with pytest.raises(ValueError, match="grid was built for another channel"):
            read(other, receiver, grid, 0.0)
        read(replace(model), receiver, grid, 0.0)  # an equal channel is the same channel


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
], ids=["solve-for-mu", "solve-for-power"])
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
        result = sweep(LC_MODEL, receiver, lc_grid)
        powers = [p.power for p in result.points]
        assert all(a <= b for a, b in zip(powers, powers[1:]))
        for p in result.points:
            if p.power == 0:
                continue
            lb = capacity_lower_bound(LC_MODEL, receiver, lc_band, p.power, lc_grid)
            ub = capacity_upper_bound(receiver, lc_band, p.power)
            assert lb <= p.capacity <= ub
        assert result.termination.full_support
        assert np.all(solve_for_mu(LC_MODEL, receiver, lc_grid,
                                   result.termination.mu).support_mask)

    def test_default_multipliers_span_the_ratio(self, lc_grid, receiver):
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        result = sweep(LC_MODEL, receiver, lc_grid)
        mus = [p.mu for p in result.points]
        assert len(mus) == 50
        assert mus[0] == pytest.approx(r.max(), rel=1e-8) and mus[-1] == pytest.approx(r.min())
        assert result.points[0].power > 0
        assert result.termination.full_support
        assert np.all(r > result.termination.mu)

    def test_near_level_points_exact(self, lc_grid, receiver):
        """The first multipliers sit within 1e-9 of the top ratio, where 1/mu - 1/r
        and log2(r/mu) would cancel; power against an exact rational sum, and
        capacity against log1p of the exactly formed (r - mu)/mu."""
        r = ratio_alpha_beta(LC_MODEL, receiver, lc_grid.nodes)
        w = lc_grid.weights
        for point in sweep(LC_MODEL, receiver, lc_grid).points[:6]:
            support = np.flatnonzero(r > point.mu)  # the LC couples at every node
            assert support.size
            mu = Fraction(point.mu)
            x = [(Fraction(float(r[i])) - mu) / mu for i in support]
            power = sum(Fraction(float(w[i])) * xi / (1 + xi) for i, xi in zip(support, x)) / mu
            capacity = math.fsum(float(w[i]) * math.log1p(float(xi))
                                 for i, xi in zip(support, x)) / math.log(2)
            assert abs(point.power - power) <= 1e-14 * power
            assert abs(point.capacity - capacity) <= 1e-14 * capacity

    @pytest.mark.parametrize("kind", ["lc", "shorted"])
    def test_termination_is_the_clamp_below_the_min_ratio(self, lc_grid, tline_grid, receiver,
                                                          kind):
        # the float below the smallest coupled ratio, as solve_for_power clamps
        model, grid = (LC_MODEL, lc_grid) if kind == "lc" else (TLINE_MODEL, tline_grid)
        r = ratio_alpha_beta(model, receiver, grid)[beta(model, receiver, grid) > 0]
        assert sweep(model, receiver, grid).termination.mu == np.nextafter(r.min(), 0)

    @pytest.mark.parametrize("kind", ["lc", "shorted", "600m"])
    def test_points_are_solve_for_mu_at_their_levels(self, lc_grid, tline_grid, receiver, kind):
        # one level step behind both: a row is solve_for_mu's C, P and support at its
        # level.  The sweep steps its 51 levels in blocks of 8192 // n rows: 12 on the
        # LC's 633 nodes and 6 on the line's 1,197, each ending in a 3-row block, and
        # one level per block on the 600 m line's 6,071 nodes
        if kind == "600m":
            config = load_config(Path(__file__).parent / "tline_600m.json")
            model, receiver = config.channel, config.receiver
            grid = build_grid(config.band, model, refine_levels=config.refine_levels)
        else:
            model, grid = (LC_MODEL, lc_grid) if kind == "lc" else (TLINE_MODEL, tline_grid)
        result = sweep(model, receiver, grid)
        for point in result.points + [result.termination]:
            sol = solve_for_mu(model, receiver, grid, point.mu)
            assert (sol.mu, sol.power, sol.capacity, bool(np.all(sol.support_mask))) == point

    def test_rows_keep_no_grid_sized_array(self):
        # 298,000 nodes: one float array of the grid is 2.4 MB.  The profile's ratio and
        # beta and the sweep's two work arrays are four of them; a fresh one per level
        # would make a fifth
        config = load_config(Path(__file__).parent / "tline_2000_poles.json")
        grid = build_grid(config.band, config.channel, refine_levels=config.refine_levels)
        tracemalloc.start()
        try:
            result = sweep(config.channel, config.receiver, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1e6
        assert peak < 5 * grid.nodes.nbytes
        assert len(result.points) == 50 and result.termination.full_support


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
    # the first pole 3.2e-11 base spacings above band.lo, where it sits on the edge node
    @example(poles=1.9999999999999858, taps=(0.5, 0.5), points_per_pole=8, rl=5e4,
             power_scale=1.0)
    def test_grid_and_kkt(self, tline_band, poles, taps, points_per_pole, rl, power_scale):
        # about `poles` in-band poles; at 8 base points per pole the refinement
        # windows (+-10 base spacings) of neighbouring poles overlap
        length = poles * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        base_points = max(16, round(points_per_pole * poles))
        grid = build_grid(tline_band, model, base_points, 6)

        assert np.all(np.diff(grid.nodes) > 0)
        # every in-band pole is its node, bit for bit, but one within the
        # near-duplicate distance h*1e-9 of a band edge, which sits on that edge
        lo, hi = tline_band.lo, tline_band.hi
        tol = (hi - lo) / (base_points - 1) * 1e-9
        in_band = poles_in_interval(model, lo, hi)
        np.testing.assert_array_equal(
            grid.nodes[grid.pole_nodes],
            np.where(in_band - lo <= tol, lo, np.where(hi - in_band <= tol, hi, in_band)))
        assert np.sum(grid.weights) == pytest.approx(tline_band.bandwidth, rel=1e-12)

        rx = make_receiver(rl)
        p_t = power_scale * POWER_W
        sol = solve_for_power(model, rx, grid, p_t)
        r = ratio_alpha_beta(model, rx, grid.nodes)
        valid = beta(model, rx, grid.nodes) > 0
        assert np.all(r[sol.support_mask] > sol.mu)
        assert np.all(r[valid & ~sol.support_mask] <= sol.mu)
        assert np.all(sol.s_it[~sol.support_mask] == 0) and np.all(sol.s_it[sol.support_mask] > 0)
        assert abs(sol.power - p_t) / p_t <= 1e-12
        level = water_level_by_loop(r[valid], grid.weights[valid], p_t)
        np.testing.assert_array_equal(sol.support_mask, valid & (r >= level))
        assert_plain_sum_level(sol.mu, r, grid.weights, p_t, sol.support_mask)
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
    # on the ratio plateau these lost the chord-slope bracket to cancellation
    # in 1/mu - 1/r and log2(r/mu) near the level
    @example(poles=1.0, taps=(0.5, 0.05), points_per_pole=32, rl=2663880.0)
    @example(poles=1.0, taps=(0.5, 0.05), points_per_pole=32, rl=2663886.0)
    def test_breakpoints_exact(self, tline_band, poles, taps, points_per_pole, rl):
        length = poles * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        grid = build_grid(tline_band, model, max(16, round(points_per_pole * poles)), 6)
        assert_breakpoints_exact(model, make_receiver(rl), grid)

    # an edge offset from a pole: ("ulps", k), ("near", u) for u*h*1e-9, that
    # is up to twice the near-duplicate distance, or ("base", u) for u*h, up to
    # half a base spacing
    EDGE_OFFSET = st.one_of(st.tuples(st.just("ulps"), st.integers(-4, 4)),
                            st.tuples(st.just("near"), st.floats(-2.0, 2.0)),
                            st.tuples(st.just("base"), st.floats(-0.5, 0.5)))

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.integers(1, 60),
        taps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        points_per_pole=st.sampled_from([8, 12, 32]),
        levels=st.integers(0, 6),
        lo_offset=EDGE_OFFSET,
        hi_offset=EDGE_OFFSET,
    )
    # the first pole 2*h*1e-9 above band.lo, with window nodes h*1e-9 (less an
    # ulp) on either side: gap by gap they chained the pole into the edge's run
    @example(spans=2, taps=(0.5, 0.5), points_per_pole=8, levels=1, lo_offset=("near", -2.0),
             hi_offset=("ulps", 0))
    def test_band_edges_at_poles(self, tline_band, spans, taps, points_per_pole, levels,
                                 lo_offset, hi_offset):
        # a band whose edges sit at two poles `spans` steps apart, give or take
        # a few ulps, up to 2*h*1e-9 or up to h/2
        length = spans * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        step = math.pi * model.wave_speed / model.length
        ladder = poles_in_interval(model, tline_band.lo - 2 * step, tline_band.hi + 2 * step)
        first = np.argmin(abs(ladder - tline_band.lo))
        p_lo, p_hi = ladder[first], ladder[first + spans]
        base_points = max(16, points_per_pole * spans)
        spacing = (p_hi - p_lo) / (base_points - 1)

        def shift(pole, offset):
            kind, amount = offset
            if kind != "ulps":
                return pole + amount * spacing * (1e-9 if kind == "near" else 1.0)
            for _ in range(abs(amount)):
                pole = np.nextafter(pole, math.copysign(math.inf, amount))
            return float(pole)

        lo, hi = shift(p_lo, lo_offset), shift(p_hi, hi_offset)
        band = Band((lo + hi) / 2, (hi - lo) / (2 * math.pi))
        grid = build_grid(band, model, base_points, levels)

        assert grid.nodes[0] == band.lo and grid.nodes[-1] == band.hi
        assert np.all(np.diff(grid.nodes) > 0)
        assert abs(math.fsum(grid.weights) / band.bandwidth - 1) <= 1e-12
        poles = poles_in_interval(model, band.lo, band.hi)
        h = (band.hi - band.lo) / (base_points - 1)
        # an edge node stays the edge, so a pole within h*1e-9 of one sits on it
        inside = (poles - band.lo > h * 1e-9) & (band.hi - poles > h * 1e-9)
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes[inside]], poles[inside])
        assert np.all(np.isin(grid.pole_nodes[~inside], [0, len(grid.nodes) - 1]))


def assert_plain_sum_level(mu, ratio, weights, p_t, support):
    """mu is within a few ulps of W / (p_t + V) summed plainly over `support`:
    both are sums of the same positive terms, accumulated in another order."""
    w = weights[support]
    plain = np.sum(w) / (p_t + np.sum(w / ratio[support]))
    assert abs(mu - plain) <= 8 * np.spacing(plain)


def assert_breakpoints_exact(model, rx, grid):
    """Budgets at the breakpoints of the capacity-power curve: at p_j, the power
    of water level r_j (a coupled node's ratio), solve_for_power returns mu = r_j
    and the capacity of solve_for_mu(r_j).  Along the breakpoints C rises and is
    concave, its chord slopes bracketed by the levels, as dC/dP = mu*log2(e)."""
    ratio = ratio_alpha_beta(model, rx, grid.nodes)
    coupled = beta(model, rx, grid.nodes) > 0
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
        w_j = np.sum(grid.weights[coupled & (ratio >= r_j)])
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


class TestWaterFloor:
    """`_water_level`'s support floor, the smallest ratio above mu, against the
    running-level loop."""

    @staticmethod
    def join_budgets(r, weights):
        """Each distinct ratio's join budget, sum of w (1/r_j - 1/r) over r > r_j:
        positive terms, so exact to a few ulps."""
        return {float(r_j): float(np.sum(weights[r > r_j] * (1 / r_j - 1 / r[r > r_j])))
                for r_j in np.unique(r)}

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8, unique=True),
        nodes=st.lists(st.tuples(st.integers(0, 7), st.floats(1e-3, 1e3)),
                       min_size=1, max_size=60),
        budget=st.sampled_from(["scaled", "breakpoint", "above-full-band"]),
        u=st.floats(0.0, 1.0),
    )
    # the first pass's level rounded up to 0.001 + 2**-62 and dropped all but
    # 1.5, whose level alone fell below the five dropped ratios: the support
    # is all six nodes, and the floor read from mu is 0.001
    @example(levels=[0.0010000000000000002, 0.001, 1.0, 1.5],
             nodes=[(0, 228.79258497708463), (3, 821.1868205800139), (0, 819.0), (1, 1.0),
                    (0, 352.1191657432187), (0, 56.527836483931964)],
             budget="breakpoint", u=0.0)
    def test_matches_the_loop(self, levels, nodes, budget, u):
        r = np.array([levels[i % len(levels)] for i, _ in nodes])  # ratios repeat
        weights = np.array([wt for _, wt in nodes])
        joins = self.join_budgets(r, weights)
        distinct = sorted(joins)
        if budget == "scaled":
            p_t = float(np.sum(weights / r)) * 10.0 ** (13 * u - 12)
        elif budget == "breakpoint":
            p_t = joins[distinct[min(int(u * len(distinct)), len(distinct) - 1)]]
            if p_t == 0:  # the top ratio joins at any budget
                return
        else:
            p_t = joins[distinct[0]] * (1 + u) + 1e-6 * float(np.sum(weights / r))
        r.setflags(write=False)  # it never writes its inputs: a write raises
        weights.setflags(write=False)
        mu = _water_level(r, weights, p_t)
        got = r[r > mu].min()
        assert_plain_sum_level(mu, r, weights, p_t, r > mu)
        expected = water_level_by_loop(r, weights, p_t)
        if budget == "above-full-band":
            assert got == expected == distinct[0]
        elif got != expected:
            # only a budget within roundoff of a join budget may tip the answer,
            # and by one distinct ratio
            lower, upper = sorted((got, expected))
            assert distinct.index(upper) == distinct.index(lower) + 1
            assert abs(joins[lower] - p_t) <= 1e-12 * p_t

    def test_breakpoints_where_a_pass_drops_every_candidate(self, tline_band):
        # the top ratios crowd under the Johnson-free ceiling g^2 R_L / (2 Q_A);
        # at one breakpoint budget a Newton pass drops the one candidate left
        # while the nodes above it are known to be powered.  Taking the dropped
        # candidate, or the top one, as the floor put the level 1e-4 too low.
        length = 2 * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, 0.5 * length, 0.8359375 * length)
        assert_breakpoints_exact(model, make_receiver(5e4), build_grid(tline_band, model, 16, 6))

    def test_top_node_powered_when_the_level_rounds_above_it(self):
        # 0.11 / (0.11 / 0.1) rounds to 0.1 + 2**-56, above both candidates
        r, w = np.array([0.1, 0.05]), np.array([0.11, 0.11])
        assert w[0] / (w[0] / r[0]) > r[0]
        assert r[r > _water_level(r, w, 1e-300)].min() == 0.1
        assert r[0] > _water_level(r[:1].copy(), w[:1].copy(), 1e-300)

    def test_median_guard_bounds_the_passes(self, monkeypatch):
        # each Newton pass here drops only a few of the smallest ratios: Newton
        # alone takes 78 passes, the median splits halve the candidates instead
        n = 1000
        i = np.arange(1, n + 1)
        r, weights = 1.0 / i, 2.0 ** (i - 900.0)
        passes = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: passes.append(1) or count_nonzero(a))
        mu = _water_level(r.copy(), weights, 1e-3)
        monkeypatch.undo()
        assert r[r > mu].min() == water_level_by_loop(r, weights, 1e-3)
        assert_plain_sum_level(mu, r, weights, 1e-3, r > mu)
        assert len(passes) <= 2 * math.ceil(math.log2(n)) + 4


class TestRefinementOffsets:
    @settings(max_examples=40, deadline=None)
    @given(
        poles=st.floats(0.5, 120.0),
        taps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
        points_per_pole=st.sampled_from([8, 12, 32, None]),
        levels=st.integers(0, 8),
    )
    def test_distinct_offsets_give_the_same_nodes(self, tline_band, poles, taps,
                                                 points_per_pole, levels):
        # doubling is exact, so level l's even-k offsets are level l-1's; a grid
        # that sizes itself (None) queries the 512-point grid's wider pole window
        length = poles * 3.0e8 / (2 * tline_band.bandwidth)
        model = TLineShortedTapped(50.0, 3.0e8, length, taps[0] * length, taps[1] * length)
        base_points = points_per_pole and max(16, round(points_per_pole * poles))
        grid = build_grid(tline_band, model, base_points, levels)
        in_band = len(poles_in_interval(model, tline_band.lo, tline_band.hi))
        base_points = base_points or max(512, 8 * in_band)
        expected = grid_nodes_by_full_broadcast(tline_band, model, base_points, levels)
        assert grid.nodes.tobytes() == expected.tobytes()
        h = (tline_band.hi - tline_band.lo) / (base_points - 1)
        # every pole is its own node, but one within h*1e-9 of an edge, on that edge
        poles = poles_in_interval(model, tline_band.lo, tline_band.hi)
        inside = (poles - tline_band.lo > h * 1e-9) & (tline_band.hi - poles > h * 1e-9)
        assert np.all(np.diff(grid.pole_nodes) > 0)
        np.testing.assert_array_equal(grid.nodes[grid.pole_nodes[inside]], poles[inside])
        table = (h / 2.0 ** np.arange(1, levels + 1))[:, None] * np.arange(-20, 21)
        assert len(np.unique(table)) == (41 + 20 * (levels - 1) if levels else 0)


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
        for solve in (lambda: solve_for_mu(model, rx, grid, 1e15),
                      lambda: solve_for_power(model, rx, grid, POWER_W),
                      lambda: sweep(model, rx, grid)):
            with pytest.raises(ValueError, match="no coupling"):
                solve()

        config = tmp_path / "dead.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in ("sweep", "waterfill", "table1"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(config), "--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                "config error: channel has no coupling anywhere in the band\n"
        assert list(tmp_path.iterdir()) == [config]


def test_uncoupled_nodes_are_left_out(tline_grid, tline_band, receiver):
    """A grid whose mutual reactance vanishes at some of its nodes (no channel
    here has one: its sines vanish only at omega = 0 or for a tap on an end):
    those nodes get no power, and the water level, the sweep's range and the
    lower bound are those of the coupled nodes alone."""
    num_rt = tline_grid.sample.num_rt.copy()
    num_rt[::7] = 0.0
    grid = replace(tline_grid, sample=replace(tline_grid.sample, num_rt=num_rt))
    coupled = num_rt != 0
    r = ratio_alpha_beta(TLINE_MODEL, receiver, grid)
    sol = solve_for_power(TLINE_MODEL, receiver, grid, POWER_W)
    level = water_level_by_loop(r[coupled], grid.weights[coupled], POWER_W)
    np.testing.assert_array_equal(sol.support_mask, coupled & (r >= level))
    assert np.all(sol.s_it[~coupled] == 0)
    assert abs(sol.power - POWER_W) <= 1e-12 * POWER_W
    result = sweep(TLINE_MODEL, receiver, grid)
    assert result.points[0].mu == r[coupled].max() * (1 - 1e-9)
    assert result.termination.mu == np.nextafter(r[coupled].min(), 0)
    snr = np.where(coupled, POWER_W * r / tline_band.bandwidth, 0.0)
    assert capacity_lower_bound(TLINE_MODEL, receiver, tline_band, POWER_W, grid) == \
        _bits(grid.weights, np.log1p(snr))
