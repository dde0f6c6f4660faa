"""JSON run configuration: channel + receiver + band + grid + analysis knobs.

One rule reads every section.  Channel, receiver and band keys are their
class's `keys`, the fields in order, and each of them is required; k_B is
fixed in `linkmodel`, so the receiver's temperature alone sets its Johnson
noise.  A missing `grid` or `analysis` key takes its `DEFAULT_CONFIG` value,
whose type says how the key is read: an int as an integer, a float as a finite
number, a list as a nonempty list of numbers; `serialize_config` writes them
back by the same rule.  Every number, from a file or a command-line flag, goes
through `_number`: a finite JSON int or float, never a bool or a string.
Unknown keys are rejected, so typos fail loudly, and so is a key repeated in
one object.  A carrier given as `carrier_hz` is converted to rad/s.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import astuple, dataclass

from .channels import CHANNEL_KINDS, ChannelModel, LcParallel
from .linkmodel import Band, ReceiverParams
from .waterfill import DEFAULT_REFINE_LEVELS

__all__ = ["RunConfig", "ConfigError", "load_document", "parse_config", "serialize_config",
           "default_config", "load_config"]

# reference defaults: ~3 GHz carrier, 10 MHz band, 300 K, 40 dB gain,
# amplifier noise referenced to 50 ohm with 9 dB excess.  The carrier sits
# exactly on the LC resonance 1/sqrt(LC) (2.9968 GHz); centering the band on
# the resonance is what reproduces the published regression values.
_DEFAULT_LC = {"inductance_h": 4.7e-9, "capacitance_f": 6.0e-13}
DEFAULT_CONFIG = {
    "channel": {"kind": LcParallel.kind, **_DEFAULT_LC},
    "receiver": {
        "load_resistance_ohm": 5.0e4,
        "amp_gain": 100.0,
        "amp_noise_v2_per_hz": 3.29e-18,
        "temperature_k": 300.0,
    },
    "band": {"carrier_rad_s": LcParallel(*_DEFAULT_LC.values()).resonance, "bandwidth_hz": 1.0e7},
    "grid": {"refine_levels": DEFAULT_REFINE_LEVELS},
    "analysis": {
        "load_resistances_ohm": [5.0e4, 5.0e5, 5.0e6],
        "power_w": 2.68e-14,
    },
}

# z0 is a conventional 50-ohm choice, not fixed by the physics of the taps;
# DEFAULT_TLINE_BAND is the band its reference artifacts are computed over
DEFAULT_TLINE_CHANNEL = {
    "kind": "tline_shorted_tapped",
    "char_impedance_ohm": 50.0,
    "wave_speed_m_s": 3.0e8,
    "length_m": 75.0,
    "x_transmit_m": 75.0 / 7,
    "x_receive_m": 8 * 75.0 / 13,
}
DEFAULT_TLINE_BAND = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelModel
    receiver: ReceiverParams
    band: Band
    refine_levels: int
    load_resistances: tuple[float, ...]
    power_w: float


def _object(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be a JSON object")
    return section


def _take(section: dict, where: str, keys: dict):
    """Pull known keys from a config section, rejecting anything else."""
    unknown = set(_object(section, where)) - set(keys)
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


def _read(value, where: str, default):
    """`value` read as `default` is: an int as an integer, a float as a finite
    number, and a list as a nonempty tuple of floats, each through `_number`."""
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{where}' must be a nonempty list of numbers, got {value!r}")
        return tuple(float(_number(v, where)) for v in value)
    return type(default)(_number(value, where, isinstance(default, int)))


def _build(cls, section, where: str, invalid: str, *head: str):
    """`cls` from the config section `where`: its keys, all required, are the `head` keys
    that the caller reads and then `cls.keys`, the fields in order.  Every value goes through
    `_number`, and a ValueError from `cls` reads "`invalid`: ..."."""
    vals = _take(section, where, dict.fromkeys((*head, *cls.keys), True))
    args = [_number(vals[key], f"{where}.{key}") for key in cls.keys]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{invalid}: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    top = _take(doc, "config", {"channel": True, "receiver": True, "band": True,
                                "grid": False, "analysis": False})
    kind = _object(top["channel"], "channel").get("kind")
    if not isinstance(kind, str) or kind not in CHANNEL_KINDS:  # a list kind is unhashable
        raise ConfigError(f"unknown channel kind: {kind!r}")
    channel = _build(CHANNEL_KINDS[kind], top["channel"], "channel", "invalid channel parameters",
                     "kind")
    receiver = _build(ReceiverParams, top["receiver"], "receiver", "invalid receiver")
    band = _object(top["band"], "band")
    if ("carrier_hz" in band) == ("carrier_rad_s" in band):
        raise ConfigError("band needs exactly one of 'carrier_hz' or 'carrier_rad_s'")
    if "carrier_hz" in band:  # read in Hz, built in rad/s
        hz = _number(band["carrier_hz"], "band.carrier_hz")
        rad_s = 2 * math.pi * hz
        if not math.isfinite(rad_s):  # refused under the key the file holds
            raise ConfigError(f"'band.carrier_hz' must be finite in rad/s, got {hz!r}")
        band = {"carrier_rad_s": rad_s, **{k: v for k, v in band.items() if k != "carrier_hz"}}
    band = _build(Band, band, "band", "invalid band")
    rest = []  # the grid and analysis keys, in DEFAULT_CONFIG's order: RunConfig's last fields
    for name in ("grid", "analysis"):
        given = _take(top.get(name, {}), name, dict.fromkeys(DEFAULT_CONFIG[name], False))
        rest += [_read(given.get(key, default), f"{name}.{key}", default)
                 for key, default in DEFAULT_CONFIG[name].items()]
    return RunConfig(channel, receiver, band, *rest)


def serialize_config(config: RunConfig) -> dict:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    ch, rx, band = config.channel, config.receiver, config.band
    doc = {
        "channel": {"kind": ch.kind, **dict(zip(ch.keys, astuple(ch)))},
        "receiver": dict(zip(rx.keys, astuple(rx))),
        "band": dict(zip(band.keys, astuple(band))),
    }
    rest = iter(astuple(config)[3:])  # RunConfig's last fields, as parse_config reads them
    for name in ("grid", "analysis"):  # zip stops at the section's last key, taking no more
        doc[name] = {key: type(default)(value)
                     for (key, default), value in zip(DEFAULT_CONFIG[name].items(), rest)}
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ConfigError(f"duplicate key {key!r} in one JSON object")
    return obj


def load_document(path=None) -> dict:
    """The JSON document at `path`, or a fresh copy of DEFAULT_CONFIG; not yet checked."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {str(path)!r} (line {exc.lineno}): {exc.msg}") from exc


def default_config() -> RunConfig:
    return parse_config(load_document())


def load_config(path) -> RunConfig:
    return parse_config(load_document(path))
