"""JSON run configuration: channel + receiver + band + grid + analysis knobs.

Frequencies in the file carry explicit unit suffixes (`_hz` or `_rad_s`) and
are converted to rad/s internally.  Unknown keys are rejected so typos fail
loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .channels import ChannelModel, LcParallel, TLineOpenEnds, TLineShortedTapped
from .linkmodel import Band, ReceiverParams

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config", "default_config"]

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
        "boltzmann_j_per_k": 1.38e-23,
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


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelModel
    receiver: ReceiverParams
    band: Band
    base_points: int = 512
    refine_levels: int = 6
    load_resistances: tuple[float, ...] = (5.0e4, 5.0e5, 5.0e6)
    power_w: float = 2.68e-14
    mu_list: tuple[float, ...] = ()


def _take(section: dict, where: str, keys: dict):
    """Pull known keys from a config section, rejecting anything else."""
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}")
    out = {}
    for key, required in keys.items():
        if key in section:
            out[key] = section[key]
        elif required:
            raise ConfigError(f"missing required key '{key}' in '{where}'")
    return out


def _parse_channel(section: dict) -> ChannelModel:
    kind = section.get("kind")
    try:
        if kind == "lc_parallel":
            vals = _take(section, "channel", {"kind": True, "inductance_h": True, "capacitance_f": True})
            return LcParallel(vals["inductance_h"], vals["capacitance_f"])
        if kind == "tline_open_ends":
            vals = _take(section, "channel", {
                "kind": True, "char_impedance_ohm": True, "wave_speed_m_s": True, "length_m": True,
            })
            return TLineOpenEnds(vals["char_impedance_ohm"], vals["wave_speed_m_s"], vals["length_m"])
        if kind == "tline_shorted_tapped":
            vals = _take(section, "channel", {
                "kind": True, "char_impedance_ohm": True, "wave_speed_m_s": True,
                "length_m": True, "x_transmit_m": True, "x_receive_m": True,
            })
            return TLineShortedTapped(
                vals["char_impedance_ohm"], vals["wave_speed_m_s"], vals["length_m"],
                vals["x_transmit_m"], vals["x_receive_m"],
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid channel parameters: {exc}") from exc
    raise ConfigError(f"unknown channel kind: {kind!r}")


def _parse_band(section: dict) -> Band:
    vals = _take(section, "band", {"carrier_hz": False, "carrier_rad_s": False, "bandwidth_hz": True})
    if ("carrier_hz" in vals) == ("carrier_rad_s" in vals):
        raise ConfigError("band needs exactly one of 'carrier_hz' or 'carrier_rad_s'")
    carrier = vals.get("carrier_rad_s", 2 * math.pi * vals.get("carrier_hz", 0.0))
    try:
        return Band(carrier, vals["bandwidth_hz"])
    except ValueError as exc:
        raise ConfigError(f"invalid band: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top = _take(doc, "config", {"channel": True, "receiver": True, "band": True,
                                "grid": False, "analysis": False})
    channel = _parse_channel(top["channel"])
    rv = _take(top["receiver"], "receiver", {
        "load_resistance_ohm": True, "amp_gain": True, "amp_noise_v2_per_hz": True,
        "temperature_k": True, "boltzmann_j_per_k": False,
    })
    try:
        receiver = ReceiverParams(
            rv["load_resistance_ohm"], rv["amp_gain"], rv["amp_noise_v2_per_hz"],
            rv["temperature_k"], rv.get("boltzmann_j_per_k", 1.38e-23),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid receiver: {exc}") from exc
    band = _parse_band(top["band"])
    gv = _take(top.get("grid", {}), "grid", {"base_points": False, "refine_levels": False})
    av = _take(top.get("analysis", {}), "analysis", {
        "load_resistances_ohm": False, "power_w": False, "mu_list": False,
    })
    return RunConfig(
        channel=channel,
        receiver=receiver,
        band=band,
        base_points=int(gv.get("base_points", 512)),
        refine_levels=int(gv.get("refine_levels", 6)),
        load_resistances=tuple(av.get("load_resistances_ohm", (5.0e4, 5.0e5, 5.0e6))),
        power_w=float(av.get("power_w", 2.68e-14)),
        mu_list=tuple(av.get("mu_list", ())),
    )


def serialize_config(config: RunConfig) -> dict:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    if isinstance(config.channel, LcParallel):
        channel = {
            "kind": "lc_parallel",
            "inductance_h": config.channel.inductance,
            "capacitance_f": config.channel.capacitance,
        }
    elif isinstance(config.channel, TLineOpenEnds):
        channel = {
            "kind": "tline_open_ends",
            "char_impedance_ohm": config.channel.char_impedance,
            "wave_speed_m_s": config.channel.wave_speed,
            "length_m": config.channel.length,
        }
    else:
        channel = {
            "kind": "tline_shorted_tapped",
            "char_impedance_ohm": config.channel.char_impedance,
            "wave_speed_m_s": config.channel.wave_speed,
            "length_m": config.channel.length,
            "x_transmit_m": config.channel.x_transmit,
            "x_receive_m": config.channel.x_receive,
        }
    return {
        "channel": channel,
        "receiver": {
            "load_resistance_ohm": config.receiver.load_resistance,
            "amp_gain": config.receiver.amp_gain,
            "amp_noise_v2_per_hz": config.receiver.amp_noise_density,
            "temperature_k": config.receiver.temperature,
            "boltzmann_j_per_k": config.receiver.boltzmann,
        },
        "band": {"carrier_rad_s": config.band.carrier, "bandwidth_hz": config.band.bandwidth},
        "grid": {"base_points": config.base_points, "refine_levels": config.refine_levels},
        "analysis": {
            "load_resistances_ohm": list(config.load_resistances),
            "power_w": config.power_w,
            "mu_list": list(config.mu_list),
        },
    }


def default_config() -> RunConfig:
    return parse_config(json.loads(json.dumps(DEFAULT_CONFIG)))


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path} (line {exc.lineno}): {exc.msg}") from exc
    return parse_config(doc)
