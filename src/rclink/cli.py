"""Command-line front end emitting CSV/JSON artifacts for the link analyses.

Each artifact command is one `_COMMANDS` entry whose function returns its
files as (path, text) pairs, and takes the flags that entry lists; the grid
sizes itself from the channel's in-band poles, refined as the config's `grid`
section alone sets.  `main` reads the config
document, writes every given flag into it at the (section, key) that
`_FLAGS` names, parses it once, builds the grid, runs the command and only
then writes the files atomically (temp + rename), so a refused input writes
none.  A flag value thus obeys the config file's number rule.  `verify`
takes no flags and prints the records of `timedomain.oracle_checks`.
`waterfill` and `sweep` read `receiver.load_resistance_ohm`; `transfer`,
`ratio` and `table1` write one result per `analysis.load_resistances_ohm`
entry.  CSV numbers carry 17 significant digits, so the files double as
regression fixtures.  Each per-node CSV has the one abscissa `omega_rad_s`,
which `transfer` and `ratio` format once per command, not once per file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import timedomain
from .config import DEFAULT_CONFIG, ConfigError, RunConfig, load_document, parse_config
from .linkmodel import (
    FrequencyGrid,
    ReceiverParams,
    capacity_lower_bound,
    capacity_upper_bound,
    ratio_alpha_beta,
    transfer_magnitude,
)
from .waterfill import build_grid, solve_for_power, sweep

__all__ = ["main"]

_FMT = "%.17g"


def _atomic_write(path: str, text: str):
    """Write through a fresh temp file renamed over `path`.  Created with mode
    0o666 like open(path, "w"), so the umask alone sets the file's mode."""
    name = f".rclink-{os.urandom(8).hex()}.tmp"
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), name)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table(header: list[str], columns) -> np.ndarray:
    """The columns as one row per CSV line; refuses a non-finite value, naming
    the first column, left to right, that holds one."""
    table = np.asarray(columns, dtype=float).T
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        name = header[finite.argmin()]
        raise RuntimeError(f"refusing to write non-finite values in column {name}")
    return table


def _csv(header: list[str], columns) -> str:
    table = _table(header, columns)
    row = ",".join([_FMT] * len(header)) + "\n"
    return ",".join(header) + "\n" + row * len(table) % tuple(table.ravel().tolist())


def _receivers(config: RunConfig) -> list[tuple[float, ReceiverParams]]:
    """Every (R_L, receiver) pair of the configured load resistances."""
    return [(rl, replace(config.receiver, load_resistance=rl)) for rl in config.load_resistances]


def _curve(header: list[str], column):
    """A command giving one two-column CSV per load resistance: the grid's
    nodes, then column(model, rx, grid), whose functional reads the reactances
    the grid carries, so no R_L re-evaluates the channel.  The nodes are
    formatted once, as row prefixes that each file's one `%` interleaves with
    its own values."""
    def fn(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
        head, *prefixes = _csv(header[:1], [grid.nodes]).splitlines()
        head += f",{header[1]}\n"
        rows = ("%s," + _FMT + "\n") * len(prefixes)
        pairs = [None] * (2 * len(prefixes))  # (row prefix, value) of every row
        pairs[::2] = prefixes
        stem, ext = os.path.splitext(out)
        files = []
        for rl, rx in _receivers(config):
            pairs[1::2] = _table(header[1:], [column(config.channel, rx, grid)]).ravel().tolist()
            files.append((f"{stem}_rl{rl:g}{ext or '.csv'}", head + rows % tuple(pairs)))
        return files
    return fn


def _solve_budget(config: RunConfig, rx: ReceiverParams, grid: FrequencyGrid):
    """`solve_for_power` at the configured budget.  Refuses a solution whose power
    misses the budget by over 1e-6 relative, as one near or below the solver's
    resolution floor does."""
    p_t = config.power_w
    sol = solve_for_power(config.channel, rx, grid, p_t)
    if abs(sol.power - p_t) > 1e-6 * p_t:
        raise ValueError(f"power budget {p_t:g} W is below the solver's resolution: "
                         f"the solution carries {sol.power!r} W")
    return sol


def _cmd_waterfill(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Optimal transmit spectral density at the configured power budget."""
    sol = _solve_budget(config, config.receiver, grid)
    summary = {
        "mu": sol.mu,
        "power_W": sol.power,
        "capacity_bps": sol.capacity,
        "spectral_efficiency": sol.capacity / config.band.bandwidth,
    }
    return [(out, _csv(["omega_rad_s", "s_it_A2_per_Hz", "in_support"],
                       [grid.nodes, sol.s_it, sol.support_mask.astype(float)])),
            (os.path.splitext(out)[0] + "_summary.json", json.dumps(summary, indent=2) + "\n")]


def _cmd_sweep(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Capacity-vs-power cross-plot, terminated at the full-support point."""
    result = sweep(config.channel, config.receiver, grid)
    b = config.band.bandwidth
    rows = [(p.mu, p.power, p.capacity, p.capacity / b, p.full_support)
            for p in (*result.points, result.termination)]
    return [(out, _csv(["mu", "power_W", "capacity_bps", "spectral_eff", "full_support"],
                       np.array(rows, dtype=float).T))]


def _cmd_table1(config: RunConfig, grid: FrequencyGrid, out: str) -> list[tuple[str, str]]:
    """Spectral efficiency and its bounds per load resistance of the configured setup."""
    model, band, p_t = config.channel, config.band, config.power_w
    b = band.bandwidth
    rows = []
    for rl, rx in _receivers(config):
        lower = capacity_lower_bound(model, rx, band, p_t, grid) / b
        upper = capacity_upper_bound(rx, band, p_t) / b
        se = _solve_budget(config, rx, grid).capacity / b
        rows.append((rl, lower, se, upper))
    return [(out, _csv(["load_resistance_ohm", "lower_bound_bs_hz", "spectral_efficiency_bs_hz",
                        "upper_bound_bs_hz"],
                       np.array(rows).T))]


# name -> (help, its flags, fn(config, grid, out))
_COMMANDS = {
    "transfer": ("transfer magnitude vs frequency per load resistance", ("--rl",),
                 _curve(["omega_rad_s", "transfer_ohm"],
                        lambda model, rx, grid: transfer_magnitude(model, rx, grid))),
    "ratio": ("alpha/beta ratio vs frequency per load resistance", ("--rl",),
              _curve(["omega_rad_s", "ratio"],
                     lambda model, rx, grid: ratio_alpha_beta(model, rx, grid))),
    "waterfill": ("optimal transmit spectral density at a power budget", ("--power",),
                  _cmd_waterfill),
    "sweep": ("capacity vs power cross-plot, ending at full support", (), _cmd_sweep),
    "table1": ("spectral efficiencies and bounds per load resistance", ("--rl", "--power"),
               _cmd_table1),
}

# flag -> the (section, key) of the config value that it overrides, and its help
_FLAGS = {
    "--rl": ("analysis", "load_resistances_ohm", "comma-separated load resistances (ohm)"),
    "--power": ("analysis", "power_w", "transmit power budget (W)"),
}


def _cmd_verify() -> int:
    """Print the physics oracle checks; nonzero exit on any failure."""
    status = 0
    for name, ok, detail in timedomain.oracle_checks():
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
        status |= not ok
    return status


@functools.cache  # built on the first `main` call, not at import; parse_args leaves it as is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rclink",
        description="Capacity analysis of links through lossless two-port networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config path (defaults to built-in LC setup)")
        p.add_argument("--out", required=True, help="output CSV path")
        for flag in flags:
            p.add_argument(flag, help=f"override {_FLAGS[flag][2]}")
    sub.add_parser("verify", help="run the physics oracle checks")
    return parser


def _flag_value(text: str, default):
    """A flag's text converted as `default` reads: by its type, or as a float
    per comma-separated item of a list.  Text that does not convert stays a
    string, which `parse_config` refuses with the same line as in a file."""
    if isinstance(default, list):
        return [_flag_value(item, 0.0) for item in text.split(",")]
    try:
        return type(default)(text)
    except ValueError:
        return text


def _document(args) -> dict:
    """The config document with each given flag's value at its (section, key).  A
    missing section is created; a root or section that is not an object is kept."""
    doc = load_document(args.config)  # only an absent --config means the built-in setup
    for flag, (section, key, _) in _FLAGS.items():
        text = vars(args).get(flag[2:].replace("-", "_"))
        part = doc.setdefault(section, {}) if text is not None and isinstance(doc, dict) else None
        if isinstance(part, dict):  # parse_config refuses any other root or section
            part[key] = _flag_value(text, DEFAULT_CONFIG[section][key])
    return doc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify()
    try:
        if not os.path.basename(args.out):  # else a file would be named from "" alone
            raise ConfigError(f"--out must name a file, got {args.out!r}")
        config = parse_config(_document(args))
        grid = build_grid(config.band, config.channel, refine_levels=config.refine_levels)
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
