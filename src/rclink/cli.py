"""Command-line front end emitting CSV/JSON artifacts for the link analyses.

Each artifact command is one `_COMMANDS` entry whose function returns its
files as (path, text) pairs.  `main` loads the config, applies the flag
overrides, builds the grid, runs the command and only then writes the files
atomically (temp + rename), so a refused input writes none.  `verify` takes
no flags.  CSV numbers carry 17 significant digits, so the files double as
regression fixtures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import timedomain
from .channels import (
    LcParallel,
    TLineOpenEnds,
    TLineShortedTapped,
    eval_reactances,
)
from .config import ConfigError, RunConfig, default_config, load_config
from .linkmodel import (
    ReceiverParams,
    capacity_lower_bound,
    capacity_upper_bound,
    ratio_alpha_beta,
    transfer_magnitude,
)
from .waterfill import FrequencyGrid, build_grid, solve_for_power, sweep

__all__ = ["main"]

_FMT = "%.17g"


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".rclink-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    for name, col in zip(header, columns):
        vals = np.asarray(col, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise RuntimeError(f"refusing to write non-finite values in column {name}")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_FMT % v for v in row))
    return "\n".join(lines) + "\n"


def _receivers(config: RunConfig) -> list[tuple[float, ReceiverParams]]:
    """Every (R_L, receiver) pair of the configured load resistances."""
    if not config.load_resistances:
        raise ConfigError("analysis.load_resistances_ohm must be nonempty")
    return [(rl, replace(config.receiver, load_resistance=rl)) for rl in config.load_resistances]


def _curve(header: list[str], columns):
    """A command giving one CSV per load resistance of columns(model, rx, nodes)."""
    def fn(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
        stem, ext = os.path.splitext(out)
        return [(f"{stem}_rl{rl:g}{ext or '.csv'}",
                 _csv(header, columns(config.channel, rx, grid.nodes)))
                for rl, rx in _receivers(config)]
    return fn


def cmd_waterfill(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Optimal transmit spectral density at the configured power budget."""
    sol = solve_for_power(config.channel, config.receiver, grid, config.power_w)
    summary = {
        "mu": sol.mu,
        "power_W": sol.power,
        "capacity_bps": sol.capacity,
        "spectral_efficiency": sol.capacity / config.band.bandwidth,
    }
    return [(out, _csv(["omega_rad_s", "s_it_A2_per_Hz", "in_support"],
                       [grid.nodes, sol.s_it, sol.support_mask.astype(float)])),
            (os.path.splitext(out)[0] + "_summary.json", json.dumps(summary, indent=2) + "\n")]


def cmd_sweep(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Capacity-vs-power cross-plot, terminated at the full-support point."""
    result = sweep(config.channel, config.receiver, grid, config.mu_list or None)
    rows = result.points + [result.termination]
    b = config.band.bandwidth
    return [(out, _csv(["mu", "power_W", "capacity_bps", "spectral_eff", "full_support"],
                       [np.array([p.mu for p in rows]),
                        np.array([p.power for p in rows]),
                        np.array([p.capacity for p in rows]),
                        np.array([p.capacity / b for p in rows]),
                        np.array([float(np.all(p.support_mask)) for p in rows])]))]


def cmd_table1(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Spectral efficiency and its bounds per load resistance of the configured setup."""
    model, band, p_t = config.channel, config.band, config.power_w
    b = band.bandwidth
    rows = []
    for rl, rx in _receivers(config):
        lower = capacity_lower_bound(model, rx, band, p_t, grid) / b
        upper = capacity_upper_bound(rx, band, p_t) / b
        se = solve_for_power(model, rx, grid, p_t).capacity / b
        rows.append((rl, lower, se, upper))
    return [(out, _csv(["load_resistance_ohm", "lower_bound_bs_hz", "spectral_efficiency_bs_hz",
                        "upper_bound_bs_hz"],
                       np.array(rows).T))]


# name -> (help, its one extra flag as (flag, type, help) or None, fn(config, grid, out))
_COMMANDS = {
    "transfer": ("transfer magnitude vs frequency per load resistance",
                 ("--rl", str, "comma-separated load resistances (ohm) override"),
                 _curve(["omega_rad_s", "freq_ghz", "transfer_ohm"],
                        lambda model, rx, nodes: [nodes, nodes / (2 * math.pi * 1e9),
                                                  transfer_magnitude(model, rx, nodes)])),
    "ratio": ("alpha/beta ratio vs frequency per load resistance",
              ("--rl", str, "comma-separated load resistances (ohm) override"),
              _curve(["omega_rad_s", "ratio"],
                     lambda model, rx, nodes: [nodes, ratio_alpha_beta(model, rx, nodes)])),
    "waterfill": ("optimal transmit spectral density at a power budget",
                  ("--power", float, "transmit power budget (W) override"), cmd_waterfill),
    "sweep": ("capacity vs power cross-plot over a multiplier range",
              ("--mu", str, "comma-separated descending Lagrange multipliers"), cmd_sweep),
    "table1": ("spectral efficiencies and bounds per load resistance", None, cmd_table1),
}


def _verify_checks():
    """Closed-form vs bounce-series oracle checks; yields (name, ok, detail)."""
    rng = np.random.default_rng(0)

    open_line = TLineOpenEnds(50.0, 3.0e8, 75.0)
    c0, length = open_line.wave_speed, open_line.length
    s = complex(0.0, -0.5 * c0 / length)
    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(0, 20) * c0 / length, s.imag)
        x = rng.uniform(0, length)
        v_s, i_s = timedomain.open_line_series_vi(open_line, w, x, 64)
        v_c, i_c = timedomain.open_line_closed_vi(open_line, w, x)
        worst = max(worst, abs(v_s - v_c) / abs(v_c), abs(i_s - i_c) / max(abs(i_c), 1e-30))
    yield "open-line series vs closed form", worst <= 1e-6, f"max rel err {worst:.2e}"

    tapped = TLineShortedTapped(50.0, 3.0e8, 75.0, 75.0 / 7, 8 * 75.0 / 13)
    s2 = complex(0.0, -1e-3 * c0 / length)
    worst = 0.0
    for _ in range(20):
        w = complex(rng.uniform(0.3, 20) * c0 / length, s2.imag)
        x = rng.uniform(0.05 * length, 0.95 * length)
        v_s = timedomain.shorted_line_series_v(tapped, w, x, 40000)
        v_c = timedomain.shorted_line_closed_v(tapped, w, x)
        worst = max(worst, abs(v_s - v_c) / abs(v_c))
    yield "shorted-line series vs closed form", worst <= 1e-4, f"max rel err {worst:.2e}"

    worst = 0.0
    for x in (0.0, length):
        v_c = timedomain.shorted_line_closed_v(tapped, complex(7.0 * c0 / length, -0.3), x)
        worst = max(worst, abs(v_c))
    yield "shorted-line endpoint voltage null", worst <= 1e-10, f"max |V| {worst:.2e}"

    lc = LcParallel(4.7e-9, 6.0e-13)
    w0 = lc.resonance
    worst = 0.0
    for w in (w0 * complex(1, -0.01), complex(0, -w0)):
        approx = timedomain.lc_transfer_from_impulse(
            lc, w, horizon=25 / abs(w.imag), dt=0.01 / w0)
        exact = timedomain.lc_transfer_closed(lc, w)
        worst = max(worst, abs(approx - exact) / abs(exact))
    yield "LC impulse-integral vs closed form", worst <= 1e-3, f"max rel err {worst:.2e}"

    # series evaluated near the real axis against the rational reactance form
    worst = 0.0
    for _ in range(10):
        w_re = rng.uniform(0.3, 20) * c0 / length
        sample = eval_reactances(tapped, w_re)
        z_rt = sample.num_rt / sample.denom
        v_c = timedomain.shorted_line_closed_v(tapped, complex(w_re, -1e-9 * c0 / length),
                                               tapped.x_receive)
        worst = max(worst, abs(v_c / 1j - z_rt) / max(abs(z_rt), 1e-12))
    yield "mutual reactance vs Helmholtz solution", worst <= 1e-4, f"max rel err {worst:.2e}"


def cmd_verify() -> int:
    """Run the physics oracle suite; nonzero exit on any failure."""
    status = 0
    for name, ok, detail in _verify_checks():
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
        if not ok:
            status = 1
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclink",
        description="Capacity analysis of links through lossless two-port networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, extra, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config path (defaults to built-in LC setup)")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--grid-points", type=int, help="override grid base points")
        p.add_argument("--refine", type=int, help="override pole refinement levels")
        if extra:
            p.add_argument(extra[0], type=extra[1], help=extra[2])
    sub.add_parser("verify", help="run the physics oracle checks")
    return parser


def _float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list: {exc}") from exc


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.grid_points is not None:
        config = replace(config, base_points=args.grid_points)
    if args.refine is not None:
        config = replace(config, refine_levels=args.refine)
    if getattr(args, "rl", None) is not None:
        config = replace(config, load_resistances=_float_list(args.rl, "--rl"))
    if getattr(args, "power", None) is not None:
        config = replace(config, power_w=args.power)
    if getattr(args, "mu", None) is not None:
        config = replace(config, mu_list=_float_list(args.mu, "--mu"))
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    try:
        config = load_config(args.config) if args.config else default_config()
        config = _apply_overrides(config, args)
        grid = build_grid(config.band, config.channel, config.base_points, config.refine_levels)
        files = _COMMANDS[args.command][2](config, grid, args.out)
        paths = [path for path, _ in files]
        if len(set(paths)) < len(paths):
            raise ConfigError(f"output files would overwrite each other: {paths}")
        for path, text in files:
            _atomic_write(path, text)
            print(path)
    except ValueError as exc:  # ConfigError, or a value a solver refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
