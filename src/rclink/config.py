"""JSON run configuration: channel + receiver + band + grid + analysis knobs.

Frequencies in the file carry explicit unit suffixes (`_hz` or `_rad_s`) and
are converted to rad/s internally.  Unknown keys are rejected so typos fail
loudly instead of silently falling back to defaults.  Channel sections map
through `channels.CHANNEL_KINDS`; missing `grid` and `analysis` keys are
filled from `DEFAULT_CONFIG`, the one place defaults are written.  Every
numeric value, from a file or a command-line flag, goes through `_number`: a
finite JSON int or float, never a bool or a string, and an integer for the
`grid` values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import astuple, dataclass

from .channels import CHANNEL_KINDS, ChannelModel
from .linkmodel import BOLTZMANN_DEFAULT, Band, ReceiverParams

__all__ = ["RunConfig", "ConfigError", "load_document", "parse_config", "serialize_config",
           "default_config"]

# reference defaults: ~3 GHz carrier, 10 MHz band, 300 K, 40 dB gain,
# amplifier noise referenced to 50 ohm with 9 dB excess.  The carrier sits
# exactly on the LC resonance 1/sqrt(LC) (2.9968 GHz); centering the band on
# the resonance is what reproduces the published regression values.
DEFAULT_CONFIG = {
    "channel": {
        "kind": "lc_parallel",
        "inductance_h": 4.7e-9,
        "capacitance_f": 6.0e-13,
    },
    "receiver": {
        "load_resistance_ohm": 5.0e4,
        "amp_gain": 100.0,
        "amp_noise_v2_per_hz": 3.29e-18,
        "temperature_k": 300.0,
        "boltzmann_j_per_k": BOLTZMANN_DEFAULT,
    },
    "band": {"carrier_rad_s": (4.7e-9 * 6.0e-13) ** -0.5, "bandwidth_hz": 1.0e7},
    "grid": {"base_points": 512, "refine_levels": 6},
    "analysis": {
        "load_resistances_ohm": [5.0e4, 5.0e5, 5.0e6],
        "power_w": 2.68e-14,
        "mu_list": [],
    },
}

# z0 is a conventional 50-ohm choice, not fixed by the physics of the taps
DEFAULT_TLINE_CHANNEL = {
    "kind": "tline_shorted_tapped",
    "char_impedance_ohm": 50.0,
    "wave_speed_m_s": 3.0e8,
    "length_m": 75.0,
    "x_transmit_m": 75.0 / 7,
    "x_receive_m": 8 * 75.0 / 13,
}


# ReceiverParams fields in order
_RECEIVER_KEYS = (
    "load_resistance_ohm", "amp_gain", "amp_noise_v2_per_hz", "temperature_k", "boltzmann_j_per_k",
)


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelModel
    receiver: ReceiverParams
    band: Band
    base_points: int
    refine_levels: int
    load_resistances: tuple[float, ...]
    power_w: float
    mu_list: tuple[float, ...]


def _take(section: dict, where: str, keys: dict):
    """Pull known keys from a config section, rejecting anything else."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}")
    missing = [key for key, required in keys.items() if required and key not in section]
    if missing:
        raise ConfigError(f"missing required key '{missing[0]}' in '{where}'")
    return {key: section[key] for key in keys if key in section}


def _number(value, where: str, integer: bool = False):
    """`value` if it is a finite JSON number (an integer if asked): not a bool or a string."""
    kind = "an integer" if integer else "a finite number"
    # the range test also refuses NaN, Infinity and integers beyond any float
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"'{where}' must be {kind}, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple[float, ...]:
    """A JSON list of numbers, each through `_number`, as floats."""
    if not isinstance(value, list):
        raise ConfigError(f"'{where}' must be a list of numbers, got {value!r}")
    return tuple(float(_number(v, where)) for v in value)


def _defaulted(top: dict, name: str) -> dict:
    """An optional section's keys, each missing one taken from DEFAULT_CONFIG."""
    defaults = DEFAULT_CONFIG[name]
    return {**defaults, **_take(top.get(name, {}), name, dict.fromkeys(defaults, False))}


def _parse_channel(section: dict) -> ChannelModel:
    cls = CHANNEL_KINDS.get(section.get("kind"))
    if cls is None:
        raise ConfigError(f"unknown channel kind: {section.get('kind')!r}")
    vals = _take(section, "channel", dict.fromkeys(("kind",) + cls.keys, True))
    args = [_number(vals[k], f"channel.{k}") for k in cls.keys]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid channel parameters: {exc}") from exc


def _parse_band(section: dict) -> Band:
    vals = _take(section, "band", {"carrier_hz": False, "carrier_rad_s": False, "bandwidth_hz": True})
    if ("carrier_hz" in vals) == ("carrier_rad_s" in vals):
        raise ConfigError("band needs exactly one of 'carrier_hz' or 'carrier_rad_s'")
    vals = {key: _number(val, f"band.{key}") for key, val in vals.items()}
    try:
        carrier = vals.get("carrier_rad_s", 2 * math.pi * vals.get("carrier_hz", 0.0))
        return Band(carrier, vals["bandwidth_hz"])
    except ValueError as exc:
        raise ConfigError(f"invalid band: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    top = _take(doc, "config", {"channel": True, "receiver": True, "band": True,
                                "grid": False, "analysis": False})
    channel = _parse_channel(top["channel"])
    required = {key: key != "boltzmann_j_per_k" for key in _RECEIVER_KEYS}
    rv = {"boltzmann_j_per_k": BOLTZMANN_DEFAULT, **_take(top["receiver"], "receiver", required)}
    args = [_number(rv[key], f"receiver.{key}") for key in _RECEIVER_KEYS]
    try:
        receiver = ReceiverParams(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid receiver: {exc}") from exc
    band = _parse_band(top["band"])
    gv, av = _defaulted(top, "grid"), _defaulted(top, "analysis")
    return RunConfig(
        channel=channel,
        receiver=receiver,
        band=band,
        base_points=_number(gv["base_points"], "grid.base_points", True),
        refine_levels=_number(gv["refine_levels"], "grid.refine_levels", True),
        load_resistances=_numbers(av["load_resistances_ohm"], "analysis.load_resistances_ohm"),
        power_w=float(_number(av["power_w"], "analysis.power_w")),
        mu_list=_numbers(av["mu_list"], "analysis.mu_list"),
    )


def serialize_config(config: RunConfig) -> dict:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    ch = config.channel
    return {
        "channel": {"kind": ch.kind, **dict(zip(ch.keys, astuple(ch)))},
        "receiver": dict(zip(_RECEIVER_KEYS, astuple(config.receiver))),
        "band": {"carrier_rad_s": config.band.carrier, "bandwidth_hz": config.band.bandwidth},
        "grid": {"base_points": config.base_points, "refine_levels": config.refine_levels},
        "analysis": {
            "load_resistances_ohm": list(config.load_resistances),
            "power_w": config.power_w,
            "mu_list": list(config.mu_list),
        },
    }


def load_document(path=None) -> dict:
    """The JSON document at `path`, or a fresh copy of DEFAULT_CONFIG; not yet checked."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {str(path)!r} (line {exc.lineno}): {exc.msg}") from exc


def default_config() -> RunConfig:
    return parse_config(load_document())


def load_config(path) -> RunConfig:
    return parse_config(load_document(path))
