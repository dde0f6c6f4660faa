import importlib.util
import inspect
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
import typing
import warnings
from dataclasses import fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rclink
from rclink import (
    Band,
    ReceiverParams,
    TLineOpenEnds,
    channels,
    cli,
    default_config,
    linkmodel,
    parse_config,
    serialize_config,
    waterfill,
)
from rclink.channels import CHANNEL_KINDS, poles_in_interval
from rclink.cli import _COMMANDS, _FLAGS, main
from rclink.config import DEFAULT_CONFIG, DEFAULT_TLINE_CHANNEL, ConfigError, load_config
from rclink.waterfill import build_grid

from conftest import LC_MODEL, TLINE_MODEL

# one valid instance of every channel kind; a kind added without one fails
# test_every_kind_has_an_example
KIND_EXAMPLES = {
    "lc_parallel": LC_MODEL,
    "tline_open_ends": TLineOpenEnds(50.0, 3.0e8, 75.0),
    "tline_shorted_tapped": TLINE_MODEL,
}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = serialize_config(default_config())
    for key, val in (overrides or {}).items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = val
        else:
            doc[section] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_round_trip(self):
        config = default_config()
        assert parse_config(serialize_config(config)) == config

    def test_default_band_centred_on_default_channel(self):
        config = default_config()
        assert config.band.carrier == config.channel.resonance

    def test_round_trip_tline(self):
        doc = serialize_config(default_config())
        doc["channel"] = dict(DEFAULT_TLINE_CHANNEL)
        doc["band"] = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
        config = parse_config(doc)
        assert parse_config(serialize_config(config)) == config

    def test_unknown_key_rejected(self):
        doc = serialize_config(default_config())
        doc["receiver"]["load_resistence_ohm"] = 1.0
        with pytest.raises(ConfigError, match="load_resistence_ohm"):
            parse_config(doc)

    def test_tolerance_key_rejected(self):
        # the power budget is met exactly, so the solver takes no tolerance
        doc = serialize_config(default_config())
        doc["analysis"]["tolerance"] = 1e-6
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config(doc)

    def test_missing_key_rejected(self):
        doc = serialize_config(default_config())
        del doc["receiver"]["amp_gain"]
        with pytest.raises(ConfigError, match="amp_gain"):
            parse_config(doc)

    def test_carrier_units_exclusive(self):
        doc = serialize_config(default_config())
        doc["band"]["carrier_hz"] = 3e9
        with pytest.raises(ConfigError, match="carrier"):
            parse_config(doc)

    def test_carrier_hz_converted(self):
        doc = serialize_config(default_config())
        doc["band"] = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
        assert parse_config(doc).band.carrier == pytest.approx(2 * math.pi * 3e9)

    @pytest.mark.parametrize("hz", [1e308, -1e308])
    def test_carrier_hz_overflowing_in_rad_s_names_its_key(self, tmp_path, capsys, hz):
        config = write_config(tmp_path, {"band": {"carrier_hz": hz, "bandwidth_hz": 1.0e7}})
        assert main(["waterfill", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == \
            f"config error: 'band.carrier_hz' must be finite in rad/s, got {hz!r}\n"

    def test_invalid_channel_kind(self):
        doc = serialize_config(default_config())
        doc["channel"] = {"kind": "rlc"}
        with pytest.raises(ConfigError, match="kind"):
            parse_config(doc)


def channel_doc(kind):
    return serialize_config(replace(default_config(), channel=KIND_EXAMPLES[kind]))


class TestChannelKinds:
    def test_every_kind_has_an_example(self):
        assert set(KIND_EXAMPLES) == set(CHANNEL_KINDS)

    @pytest.mark.parametrize("kind", sorted(CHANNEL_KINDS))
    def test_round_trip(self, kind):
        config = replace(default_config(), channel=KIND_EXAMPLES[kind])
        doc = serialize_config(config)
        assert list(doc["channel"]) == ["kind", *CHANNEL_KINDS[kind].keys]
        assert doc["channel"]["kind"] == kind
        assert parse_config(json.loads(json.dumps(doc))) == config

    @pytest.mark.parametrize("kind", sorted(CHANNEL_KINDS))
    def test_missing_key(self, kind):
        for key in CHANNEL_KINDS[kind].keys:
            doc = channel_doc(kind)
            del doc["channel"][key]
            with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
                parse_config(doc)

    @pytest.mark.parametrize("kind", sorted(CHANNEL_KINDS))
    def test_invalid_value(self, kind):
        for key in CHANNEL_KINDS[kind].keys:
            doc = channel_doc(kind)
            doc["channel"][key] = -1.0
            with pytest.raises(ConfigError, match="invalid channel parameters"):
                parse_config(doc)


# the receiver and band sections, read by the same rule as a channel's
SECTIONS = {"receiver": ReceiverParams, "band": Band}


class TestSections:
    @pytest.mark.parametrize("name", SECTIONS)
    def test_keys_name_the_fields_in_order(self, name):
        cls = SECTIONS[name]
        assert len(cls.keys) == len(fields(cls))
        assert list(serialize_config(default_config())[name]) == list(cls.keys)

    @pytest.mark.parametrize("name", SECTIONS)
    def test_missing_key(self, name):
        for key in SECTIONS[name].keys:
            doc = serialize_config(default_config())
            del doc[name][key]
            # a band without its carrier in rad/s needs the carrier in Hz
            with pytest.raises(ConfigError, match=f"'{key}'"):
                parse_config(doc)

    @pytest.mark.parametrize("name, invalid", [("receiver", "invalid receiver: "),
                                               ("band", "invalid band: ")])
    def test_invalid_value(self, name, invalid):
        for key in SECTIONS[name].keys:
            doc = serialize_config(default_config())
            doc[name][key] = -1.0
            with pytest.raises(ConfigError, match=invalid):
                parse_config(doc)

    def test_boltzmann_key_refused(self):
        # k_B is a constant: a receiver that names it is refused like any unknown key
        doc = serialize_config(default_config())
        doc["receiver"]["boltzmann_j_per_k"] = 1.38e-23
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == "unknown keys in 'receiver': ['boltzmann_j_per_k']"

    def test_mu_list_key_refused(self, tmp_path, capsys):
        # sweep's multipliers are no input: a config that names them is refused
        config = write_config(tmp_path, {"analysis.mu_list": []})
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "config error: unknown keys in 'analysis': ['mu_list']\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_build_grid_defaults_are_the_config_defaults(self):
        params = inspect.signature(build_grid).parameters
        assert {key: params[key].default for key in DEFAULT_CONFIG["grid"]} == \
            DEFAULT_CONFIG["grid"]

    # the channel section is read like any other: one that is no object, or a
    # kind that is no string, is a config error, not a crash
    @pytest.mark.parametrize("section, line", [
        (5, "'channel' must be a JSON object"),
        ([], "'channel' must be a JSON object"),
        ({"kind": []}, "unknown channel kind: []"),
        ({"kind": {"a": 1}}, "unknown channel kind: {'a': 1}"),
        ({}, "unknown channel kind: None"),
    ])
    def test_channel_section_refused(self, tmp_path, capsys, section, line):
        config = write_config(tmp_path, {"channel": section})
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    FINITE = {"allow_nan": False, "allow_infinity": False}

    @given(
        channel=st.sampled_from(sorted(KIND_EXAMPLES)),
        receiver=st.fixed_dictionaries({
            "load_resistance_ohm": st.floats(1e-3, 1e9),
            "amp_gain": st.one_of(st.integers(1, 10**4), st.floats(1e-3, 1e6)),
            "amp_noise_v2_per_hz": st.floats(1e-30, 1e-10),
            "temperature_k": st.one_of(st.integers(0, 1000), st.floats(0.0, 1e4)),
        }),
        bandwidth=st.floats(1.0, 1e9),
        headroom=st.floats(1.01, 1e6),  # the carrier over the band's half width
        in_hz=st.booleans(),
        grid=st.fixed_dictionaries({}, optional={"refine_levels": st.integers(0, 29)}),
        analysis=st.fixed_dictionaries({}, optional={
            "load_resistances_ohm": st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=4),
            "power_w": st.floats(-1e3, 1e3, **FINITE),
        }),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, channel, receiver, bandwidth, headroom, in_hz, grid, analysis):
        carrier = headroom * math.pi * bandwidth
        band = ({"carrier_hz": carrier / (2 * math.pi)} if in_hz else {"carrier_rad_s": carrier})
        doc = serialize_config(replace(default_config(), channel=KIND_EXAMPLES[channel]))
        doc.update(receiver=receiver, band={**band, "bandwidth_hz": bandwidth}, grid=grid,
                   analysis=analysis)
        config = parse_config(doc)
        out = serialize_config(config)
        assert list(out) == list(DEFAULT_CONFIG)
        assert list(out["channel"]) == ["kind", *type(config.channel).keys]
        assert list(out["receiver"]) == list(ReceiverParams.keys)
        assert list(out["band"]) == list(Band.keys)
        for name in ("grid", "analysis"):
            assert list(out[name]) == list(DEFAULT_CONFIG[name])
        assert parse_config(json.loads(json.dumps(out))) == config
        assert parse_config(out) == config


class TestTransferCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--out", str(out), "--rl", "5e4,5e6"]) == 0
        peaks = {}
        for rl in ("50000", "5e+06"):
            header, data = read_csv(tmp_path / f"transfer_rl{rl}.csv")
            assert header == ["omega_rad_s", "transfer_ohm"]
            assert np.all(np.isfinite(data))
            peak_idx = np.argmax(data[:, 1])
            # peak at the node nearest the resonance
            nearest = np.argmin(np.abs(data[:, 0] - LC_MODEL.resonance))
            assert peak_idx == nearest
            peaks[rl] = data[peak_idx, 1]
        assert peaks["5e+06"] > peaks["50000"]
        assert peaks["50000"] == pytest.approx(5e4, rel=1e-9)

    def test_lc_above_sqrt2_resonance_at_large_load(self, tmp_path):
        # carrier 2.1 times the resonance, where |1 - LC omega^2| is 3.5, and
        # R_L = 1.2e154, whose square is a float but (3.5 R_L)^2 is not
        config = Path(__file__).parent / "lc_above_resonance.json"
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["transfer", "--config", str(config), "--out", str(out)]) == 0
        _, data = read_csv(tmp_path / "t_rl1.2e+154.csv")
        lc, rl = load_config(config).channel, mpmath.mpf(1.2e154)
        with mpmath.workdps(40):
            for omega, transfer in data[:: len(data) // 64]:
                x = mpmath.mpf(omega) * lc.inductance / (
                    1 - mpmath.mpf(lc.inductance) * lc.capacitance * mpmath.mpf(omega) ** 2)
                exact = rl * abs(x) / abs(mpmath.mpc(rl, x))  # R_L |Z_RT| / |Z_R + R_L|
                assert abs(transfer - exact) <= 1e-14 * exact
        assert data[0, 1] == pytest.approx(53.6, rel=1e-3)

    def test_empty_rl_list_is_config_error(self, tmp_path):
        path = write_config(tmp_path, {"analysis.load_resistances_ohm": []})
        out = tmp_path / "t.csv"
        assert main(["transfer", "--config", str(path), "--out", str(out)]) == 2


class TestRatioCommand:
    def test_minimum_at_resonance(self, tmp_path):
        out = tmp_path / "ratio.csv"
        assert main(["ratio", "--out", str(out), "--rl", "5e4"]) == 0
        _, data = read_csv(tmp_path / "ratio_rl50000.csv")
        assert data[np.argmin(data[:, 1]), 0] == pytest.approx(LC_MODEL.resonance)

    def test_zero_temperature_constant(self, tmp_path):
        path = write_config(tmp_path, {"receiver.temperature_k": 0.0})
        out = tmp_path / "ratio.csv"
        assert main(["ratio", "--config", str(path), "--out", str(out), "--rl", "5e4"]) == 0
        _, data = read_csv(tmp_path / "ratio_rl50000.csv")
        np.testing.assert_allclose(data[:, 1], data[0, 1], rtol=1e-12)

    def test_tline_minimum_per_pole(self, tmp_path):
        doc = serialize_config(default_config())
        doc["channel"] = dict(DEFAULT_TLINE_CHANNEL)
        doc["band"] = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
        path = tmp_path / "tline.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "ratio.csv"
        assert main(["ratio", "--config", str(path), "--out", str(out), "--rl", "5e5"]) == 0
        _, data = read_csv(tmp_path / "ratio_rl500000.csv")
        omega, ratio = data[:, 0], data[:, 1]
        config = parse_config(doc)
        poles = poles_in_interval(config.channel, config.band.lo, config.band.hi)
        assert len(poles) == 5
        for p in poles:
            i = np.argmin(np.abs(omega - p))
            lo = max(i - 20, 0)
            hi = min(i + 21, len(ratio))
            assert ratio[i] == np.min(ratio[lo:hi])


class TestWaterfillCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["waterfill", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["omega_rad_s", "s_it_A2_per_Hz", "in_support"]
        summary = json.loads((tmp_path / "wf_summary.json").read_text())
        assert summary["spectral_efficiency"] == pytest.approx(0.500, rel=0.03)
        assert summary["power_W"] == pytest.approx(2.68e-14, rel=1e-6)
        # no power in a contiguous neighborhood of the resonance
        pole_i = np.argmin(np.abs(data[:, 0] - LC_MODEL.resonance))
        assert np.all(data[pole_i - 5 : pole_i + 6, 1] == 0.0)

    def test_power_override(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["waterfill", "--out", str(out), "--power", "1e-13"]) == 0
        summary = json.loads((tmp_path / "wf_summary.json").read_text())
        assert summary["power_W"] == pytest.approx(1e-13, rel=1e-6)


class TestSweepCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["mu", "power_W", "capacity_bps", "spectral_eff", "full_support"]
        mu, power, cap = data[:, 0], data[:, 1], data[:, 2]
        assert np.all(np.diff(mu) < 0)
        assert np.all(np.diff(power) >= 0)
        assert np.all(np.diff(cap) >= 0)
        assert data[-1, 4] == 1.0

    def test_takes_no_multipliers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--mu", "1e16", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mu 1e16" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_doubly_nulled_mode_gets_no_power(tmp_path):
    """Both taps on the middle node of mode 12 at the carrier, R_L = 1e147: at the
    carrier's pole node num_r and num_rt are roundoff, beta underflows to 0, and
    the channel does not couple there."""
    config = Path(__file__).parent / "tline_doubly_nulled.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("waterfill", "table1", "sweep"):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
    _, (row,) = read_csv(tmp_path / "table1.csv")
    assert row[0] == 1e147 and row[1] < row[2] < row[3]
    _, data = read_csv(tmp_path / "waterfill.csv")
    assert np.all(np.isfinite(data))
    carrier = np.argmin(np.abs(data[:, 0] - load_config(config).band.carrier))
    assert data[carrier, 1] == 0.0 and data[carrier, 2] == 0.0
    assert np.count_nonzero(data[:, 2]) == len(data) - 1


@pytest.mark.parametrize("config, command", [
    ("tline_600m.json", "table1"),
    ("tline_600m.json", "waterfill"),
    ("tline_600m.json", "sweep"),
    ("tline_2000_poles.json", "sweep"),  # 298,000 nodes
])
def test_line_configs_run(tmp_path, config, command):
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(Path(__file__).parent / config), "--out", str(out)]) == 0
    _, data = read_csv(out)
    assert len(data) and np.isfinite(data).all()
    if command == "table1":
        _, lower, se, upper = data.T
        assert np.all((lower < se) & (se < upper))


class TestLoadResistance:
    """`waterfill` and `sweep` read receiver.load_resistance_ohm; `transfer`, `ratio`
    and `table1` read analysis.load_resistances_ohm and ignore the receiver's."""

    # a and b differ only in the list, a and c only in the receiver's load
    CONFIGS = {"a": (5e6, [5e4]), "b": (5e6, [5e5]), "c": (5e4, [5e4])}

    def run(self, tmp_path, command, name):
        rl, rls = self.CONFIGS[name]
        config = write_config(tmp_path, {"receiver.load_resistance_ohm": rl,
                                         "analysis.load_resistances_ohm": rls}, f"{name}.json")
        out = tmp_path / f"{command}_{name}"
        out.mkdir()
        assert main([command, "--config", str(config), "--out", str(out / "o.csv")]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_each_command_reads_one_home(self, tmp_path, command):
        a, b, c = (self.run(tmp_path, command, name) for name in self.CONFIGS)
        reads_receiver = command in ("waterfill", "sweep")
        assert (a == b) == reads_receiver
        assert (a == c) != reads_receiver

    # the paper's regime: R_L far above the reference values, up to the largest whose
    # square is a float.  A dict in argv stands for a config file, as in BAD_INPUTS.
    LARGE = {
        "table1": ["table1", "--rl", "1e110,1e150"],
        "transfer": ["transfer", "--rl", "1e150"],
        "ratio": ["ratio", "--rl", "1e150"],
        "waterfill": ["waterfill", "--config", {"receiver.load_resistance_ohm": 1e150}],
        "sweep": ["sweep", "--config", {"receiver.load_resistance_ohm": 1e150}],
    }

    @pytest.mark.parametrize("argv", LARGE.values(), ids=LARGE)
    def test_large_load_resistance_runs(self, tmp_path, argv):
        # a numpy overflow warning fails the suite, so none is raised on the way
        config = write_config(tmp_path, next((a for a in argv if isinstance(a, dict)), {}))
        argv = [str(config) if isinstance(a, dict) else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
        files = sorted(tmp_path.glob("o*.csv"))
        assert files
        for path in files:
            assert np.isfinite(read_csv(path)[1]).all()


class TestTable1Command:
    def test_reference_values_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(["table1", "--out", str(out1)]) == 0
        assert main(["table1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, data = read_csv(out1)
        expected = [
            (5e4, 0.426, 0.500, 17.6),
            (5e5, 3.58, 3.67, 21.0),
            (5e6, 9.69, 9.70, 24.3),
        ]
        for row, (rl, lower, se, upper) in zip(data, expected):
            assert row[0] == rl
            assert row[1] == pytest.approx(lower, rel=0.02)
            assert row[2] == pytest.approx(se, rel=0.03)
            assert row[3] == pytest.approx(upper, abs=0.05)

    def test_boltzmann_sensitivity(self, tmp_path):
        # switching to the SI-exact constant moves the SEs by well under 0.5%; only
        # k_B*T is read, so the SI value is run by scaling the temperature
        temperature = DEFAULT_CONFIG["receiver"]["temperature_k"] * 1.380649 / 1.38
        path = write_config(tmp_path, {"receiver.temperature_k": temperature})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table1", "--out", str(out1)]) == 0
        assert main(["table1", "--config", str(path), "--out", str(out2)]) == 0
        _, a = read_csv(out1)
        _, b = read_csv(out2)
        np.testing.assert_allclose(b[:, 2], a[:, 2], rtol=5e-3)
        assert np.any(a[:, 2] != b[:, 2])

    def test_reads_the_configured_channel(self, tmp_path):
        path = write_config(tmp_path, {"channel": dict(DEFAULT_TLINE_CHANNEL),
                                       "band": {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}})
        lc, line = tmp_path / "lc.csv", tmp_path / "line.csv"
        assert main(["table1", "--out", str(lc)]) == 0
        assert main(["table1", "--config", str(path), "--out", str(line)]) == 0
        _, a = read_csv(lc)
        _, b = read_csv(line)
        assert np.all(a[:, 1:3] != b[:, 1:3])
        _, lower, se, upper = b.T
        assert np.all((lower < se) & (se < upper))

    def test_rl_flag(self, tmp_path):
        default, one = tmp_path / "default.csv", tmp_path / "one.csv"
        assert main(["table1", "--out", str(default)]) == 0
        assert main(["table1", "--rl", "5e4", "--out", str(one)]) == 0
        assert one.read_bytes() == b"".join(default.read_bytes().splitlines(True)[:2])

    def test_power_flag_is_the_config_key(self, tmp_path):
        config = write_config(tmp_path, {"analysis.power_w": 1e-13})
        flag, file, default = (tmp_path / f"{name}.csv" for name in ("flag", "file", "default"))
        assert main(["table1", "--power", "1e-13", "--out", str(flag)]) == 0
        assert main(["table1", "--config", str(config), "--out", str(file)]) == 0
        assert main(["table1", "--out", str(default)]) == 0
        assert flag.read_bytes() == file.read_bytes() != default.read_bytes()

    def test_unrefined_grid_accepted(self, tmp_path):
        # the 512 base nodes alone resolve the lower bound, with the resonance as
        # one more node (513, odd) or, in a band above it, none (512, even): the
        # every-other-node check keeps the last node of either
        above = {"carrier_rad_s": 4.0e10, "bandwidth_hz": 1.0e7}
        for band, count in (({}, 513), ({"band": above}, 512)):
            config = write_config(tmp_path, {"grid.refine_levels": 0, **band})
            out = tmp_path / "t.csv"
            parsed = load_config(config)
            assert len(build_grid(parsed.band, parsed.channel, None, 0).nodes) == count
            assert main(["table1", "--config", str(config), "--out", str(out)]) == 0
            _, lower, se, upper = read_csv(out)[1].T
            assert np.all((lower < se) & (se < upper))

    @pytest.mark.parametrize("poles", [500, 2000, 8000])
    def test_long_line_runs_at_the_default_grid(self, tmp_path, poles):
        # 15 m of line per in-band pole, and 2 cm more keeps each band edge 0.4
        # pole spacings from a pole; 512 base points were refused as too coarse
        doc = json.loads((Path(__file__).parent / "tline_2000_poles.json").read_text())
        length = 15.0 * poles + 0.02
        doc["channel"].update(length_m=length, x_transmit_m=0.31 * length,
                              x_receive_m=0.77 * length)
        config, out = tmp_path / "config.json", tmp_path / "t.csv"
        config.write_text(json.dumps(doc))
        parsed = load_config(config)
        assert len(poles_in_interval(parsed.channel, parsed.band.lo, parsed.band.hi)) == poles
        assert main(["table1", "--config", str(config), "--out", str(out)]) == 0
        _, lower, se, upper = read_csv(out)[1].T
        assert np.all((lower < se) & (se < upper))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_one_channel_evaluation_per_run(tmp_path, monkeypatch, command):
    """build_grid samples the channel once; every load resistance reads that sample."""
    evaluate, points = channels.eval_reactances, []

    def counted(model, omega):
        points.append(np.size(omega))
        return evaluate(model, omega)

    for module in (waterfill, linkmodel):
        monkeypatch.setattr(module, "eval_reactances", counted)
    assert len(default_config().load_resistances) == 3
    assert main([command, "--out", str(tmp_path / "o.csv")]) == 0
    assert len(points) == 1


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    # each channel's reactances off by 1.1 times its check's gate fail that check
    # alone; 0.9 times the gate passes all five
    @pytest.mark.parametrize("factor", [1.1, 0.9])
    @pytest.mark.parametrize("cls, check, gate", [
        (channels.TLineOpenEnds, "open-line series vs closed form", 1e-6),
        (channels.TLineShortedTapped, "shorted-line series vs closed form", 1e-4),
        (channels.LcParallel, "LC impulse-integral vs closed form", 1e-3),
    ], ids=["open", "shorted", "lc"])
    def test_fails_a_wrong_reactance(self, monkeypatch, capsys, cls, check, gate, factor):
        right, scale = cls.reactances, 1 + factor * gate

        def wrong(model, omega):
            s = right(model, omega)
            return channels.ReactanceSample(s.num_r * scale, s.num_rt * scale, s.denom)

        monkeypatch.setattr(cls, "reactances", wrong)
        assert main(["verify"]) == (factor > 1)
        lines = capsys.readouterr().out.splitlines()
        failed = [l for l in lines if l.startswith(f"FAIL: {check} (")]
        assert len(lines) == 5 and len(failed) == (factor > 1)
        assert all(l.startswith("PASS:") for l in lines if l not in failed)

    def test_takes_no_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--power", "1"])
        assert exc.value.code == 2

    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-m", "rclink", "verify"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert [l[:5] for l in run.stdout.splitlines()] == ["PASS:"] * 5


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        assert main(["transfer", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["table1", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2

    def test_unwritable_out_path(self, tmp_path):
        assert main(["table1", "--out", str(tmp_path / "no_dir" / "o.csv")]) == 1

    def test_out_is_a_directory(self, tmp_path, capsys):
        # the temp file is written, then cannot be renamed over the directory:
        # it is removed, and the command fails with one line
        out = tmp_path / "t.csv"
        out.mkdir()
        assert main(["table1", "--rl", "5e4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("where", ["top", "receiver"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, where):
        # the last value would win without a word: here, a zero-temperature run
        text = json.dumps(serialize_config(default_config()))
        if where == "top":
            key, text = "grid", text[:-1] + ', "grid": {"refine_levels": 2}}'
        else:
            key = "temperature_k"
            text = text.replace('"temperature_k": 300.0', '"temperature_k": 300.0, '
                                '"temperature_k": 0.0')
        config = tmp_path / "dup.json"
        config.write_text(text)
        assert main(["waterfill", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == \
            f"config error: duplicate key '{key}' in one JSON object\n"
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_empty_load_resistance_list_refused_at_parse(self, tmp_path, capsys, monkeypatch,
                                                         command):
        config = write_config(tmp_path, {"analysis.load_resistances_ohm": []})
        monkeypatch.setattr(cli, "build_grid", lambda *a: pytest.fail("a grid was built"))
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == ("config error: 'analysis.load_resistances_ohm' must "
                                           "be a nonempty list of numbers, got []\n")
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("out", ["", "sub/"])
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_out_without_a_file_name_refused(self, tmp_path, capsys, monkeypatch, command, out):
        # the files would be named from "" in the working directory or in sub/,
        # or a temp file made in the parent of the working directory
        work = tmp_path / "work"
        (work / "sub").mkdir(parents=True)
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli, "build_grid", lambda *a: pytest.fail("a grid was built"))
        assert main([command, "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: --out must name a file, got {out!r}\n"
        assert list(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == [work / "sub"] and list((work / "sub").iterdir()) == []

    def test_bad_rl_list(self, tmp_path):
        assert main(["transfer", "--out", str(tmp_path / "o.csv"), "--rl", "5e4,abc"]) == 2

    def test_table1_without_amplifier_noise(self, tmp_path, capsys):
        # the upper bound is infinite, which no CSV holds
        config = write_config(tmp_path, {"receiver.amp_noise_v2_per_hz": 0.0})
        assert main(["table1", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "upper_bound_bs_hz" in err
        assert list(tmp_path.iterdir()) == [config]

    # each value reaches a solver or the grid builder, which refuses it with
    # the message fragment given next to it
    POSITIVE_POWER = "p_t must be positive and finite"
    # the base points follow the channel's poles, so a config cannot set them
    NO_BASE_POINTS = "unknown keys in 'grid': ['base_points']"
    REFINE_RANGE = "refine_levels must be in [0, 29]"
    POSITIVE_RL = "load_resistance must be positive and finite"
    SQUARE_RL = "load_resistance must have a finite square, got 1e+200"
    CEILING = "the SNR ceiling g*g*R_L/(2*Q_A) and g*g*R_L must be finite, got amp_gain="
    COARSE = "frequency grid too coarse for the lower-bound integral"
    UNRESOLVED = "W is below the solver's resolution: the solution carries 4.23"
    TLINE_600M = json.loads((Path(__file__).parent / "tline_600m.json").read_text())
    # a dict in argv stands for a config file: the default one with those overrides
    BAD_INPUTS = {
        "power-zero": (["waterfill", "--power", "0"], POSITIVE_POWER),
        "power-negative": (["waterfill", "--power", "-1"], POSITIVE_POWER),
        # budgets below the solver's resolution: its solution carries 4.23e-33 W,
        # and the SE was printed above its own upper bound
        "table1-power-unresolved": (["table1", "--power", "1e-40"],
                                    f"config error: power budget 1e-40 {UNRESOLVED}"),
        "waterfill-power-unresolved": (["waterfill", "--power", "1e-60"],
                                       f"config error: power budget 1e-60 {UNRESOLVED}"),
        "base-points-zero": (["waterfill", "--config", {"grid.base_points": 0}], NO_BASE_POINTS),
        "base-points-8": (["waterfill", "--config", {"grid.base_points": 8}], NO_BASE_POINTS),
        "refine-negative": (["waterfill", "--config", {"grid.refine_levels": -1}], REFINE_RANGE),
        "refine-30": (["sweep", "--config", {"grid.refine_levels": 30}], REFINE_RANGE),
        "refine-2000": (["sweep", "--config", {"grid.refine_levels": 2000}], REFINE_RANGE),
        "rl-negative": (["transfer", "--rl", "-5"], POSITIVE_RL),
        "rl-second-negative": (["transfer", "--rl", "5e4,-5"], POSITIVE_RL),
        "rl-same-file-name": (["ratio", "--rl", "123456.7,123456.8"],
                              "output files would overwrite each other"),
        "config-base-points-8": (["transfer", "--config", {"grid.base_points": 8}],
                                 NO_BASE_POINTS),
        # the 600 m line's 40 poles on 512 base points, with too little refinement
        # (unrefined, the 40 poles are nodes of their own between the base nodes)
        "table1-600m-unrefined": (["table1", "--config", {
            **TLINE_600M, "grid": {"refine_levels": 0}}], f"{COARSE} (refinement changes "
                                  "result by 1.49e-02)"),
        "table1-600m-one-level": (["table1", "--config", {
            **TLINE_600M, "grid": {"refine_levels": 1}}], f"{COARSE} (refinement changes "
                                  "result by 4.61e-03)"),
        # flags obey the config file's number rule
        "power-nan": (["waterfill", "--power", "nan"],
                      "'analysis.power_w' must be a finite number, got nan"),
        "power-inf": (["waterfill", "--power", "inf"],
                      "'analysis.power_w' must be a finite number, got inf"),
        "rl-nan": (["transfer", "--rl", "nan"],
                   "'analysis.load_resistances_ohm' must be a finite number, got nan"),
        "rl-inf": (["transfer", "--rl", "inf"],
                   "'analysis.load_resistances_ohm' must be a finite number, got inf"),
        "rl-beyond-float": (["transfer", "--rl", "1e400"],
                            "'analysis.load_resistances_ohm' must be a finite number, got inf"),
        # finite, but the load share squares R_L past the largest float
        "rl-square-overflows": (["table1", "--rl", "1e200"], SQUARE_RL),
        "rl-square-overflows-transfer": (["transfer", "--rl", "5e4,1e200"], SQUARE_RL),
        "receiver-rl-square-overflows": (
            ["sweep", "--config", {"receiver.load_resistance_ohm": 1e200}],
            f"invalid receiver: {SQUARE_RL}"),
        # g*g*R_L/(2*Q_A), the largest alpha/beta, past the largest float: with g*g
        # overflowing, with g*g finite, and with the gain accepted at the file's R_L
        "gain-square-overflows": (["ratio", "--config", {"receiver.amp_gain": 1e200}],
                                  f"invalid receiver: {CEILING}1e+200, "),
        "gain-over-ceiling": (["waterfill", "--config", {"receiver.amp_gain": 1e150}],
                              f"invalid receiver: {CEILING}1e+150, load_resistance=50000.0"),
        "gain-and-rl-over-ceiling": (
            ["table1", "--rl", "1e110", "--config", {"receiver.amp_gain": 1e100}],
            f"config error: {CEILING}1e+100, load_resistance=1e+110"),
        # only an absent --config means the built-in setup; an empty path shows
        # quoted, not as nothing
        "config-empty-path": (["waterfill", "--config", ""], "cannot read config '': "),
    }

    @pytest.mark.parametrize("argv, reason", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_2(self, tmp_path, capsys, argv, reason):
        config = write_config(tmp_path, next((a for a in argv if isinstance(a, dict)), {}))
        argv = [str(config) if isinstance(a, dict) else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert reason in err
        assert list(tmp_path.iterdir()) == [config]

    # a number is a finite JSON int or float, never a bool or a string; grid
    # values are integers.  The id up to any "-" is the config key, and the
    # refusal names it and what it must be.
    WRONG_TYPES = {
        "channel.inductance_h": ("abc", "a finite number"),
        "receiver.amp_gain": (None, "a finite number"),
        "band.bandwidth_hz": ("1e7", "a finite number"),
        "analysis.load_resistances_ohm": (5e4, "a nonempty list of numbers"),
        "grid.refine_levels": (None, "an integer"),
        "receiver": (5, "a JSON object"),
        "grid.refine_levels-fraction": (6.5, "an integer"),
        "grid.refine_levels-bool": (True, "an integer"),
        "analysis.power_w-string": ("2.68e-14", "a finite number"),
        "analysis.load_resistances_ohm-string": (["5e4"], "a finite number"),
        "receiver.amp_gain-bool": (True, "a finite number"),
        "channel.inductance_h-bool": (True, "a finite number"),
        "receiver.temperature_k-nan": (math.nan, "a finite number"),
        "analysis.power_w-infinity": (math.inf, "a finite number"),
        "band.bandwidth_hz-beyond-float": (10**400, "a finite number"),
    }

    @pytest.mark.parametrize("key", WRONG_TYPES)
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys, key):
        value, kind = self.WRONG_TYPES[key]
        where = key.split("-")[0]
        config = write_config(tmp_path, {where: value})
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: '{where}' must be {kind}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [config]

    # (command, flag, its text, the config key it overrides, that value in a file)
    SAME_VALUE = {
        "power-nan": ("waterfill", "--power", "nan", "analysis.power_w", math.nan),
        "power-infinity": ("waterfill", "--power", "inf", "analysis.power_w", math.inf),
        "rl-beyond-float": ("transfer", "--rl", "5e4,1e400", "analysis.load_resistances_ohm",
                            [5e4, math.inf]),
        "rl-string": ("transfer", "--rl", "5e4,abc", "analysis.load_resistances_ohm",
                      [5e4, "abc"]),
        "power-string": ("waterfill", "--power", "abc", "analysis.power_w", "abc"),
    }

    @pytest.mark.parametrize("case", SAME_VALUE.values(), ids=SAME_VALUE.keys())
    def test_flag_and_file_give_the_same_error(self, tmp_path, capsys, case):
        command, flag, text, key, value = case
        out = str(tmp_path / "o.csv")
        assert main([command, flag, text, "--out", out]) == 2
        from_flag = capsys.readouterr().err
        config = write_config(tmp_path, {key: value})
        assert main([command, "--config", str(config), "--out", out]) == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith("config error: ") and from_flag.count("\n") == 1


def reference_csv(header, columns):
    """One `%` per value: the bytes `cli._csv` must reproduce."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    # the mode open(path, "w") would give, though written through a temp file
    old = os.umask(umask)
    try:
        assert main(["waterfill", "--out", str(tmp_path / "w.csv")]) == 0
    finally:
        os.umask(old)
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == ["w.csv", "w_summary.json"]
    assert all(stat.S_IMODE(f.stat().st_mode) == mode for f in files)


class TestCsv:
    # around 1e-4 and 1e17 %.17g switches between fixed and exponent form
    EDGES = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1),
             np.nextafter(1e17, 0), 1e17, np.nextafter(1e17, np.inf), -1e17, 2.0**53 + 2,
             math.pi, -1 / 3, 1.7976931348623157e308, 2.2250738585072014e-308]

    CASES = {
        "edges": (["a", "b"], [np.array(EDGES), -np.array(EDGES)]),
        "support-flags": (["omega", "s", "in_support"],
                          [np.linspace(1.0, 2.0, 5), np.array([0.0, 1e-30, 0.5, 0.0, 3.0]),
                           np.array([False, True, True, False, True]).astype(float)]),
        "one-row": (["x", "y", "z"], [np.array([1e-5]), np.array([1e17]), np.array([-0.0])]),
        "no-rows": (["x", "y"], [np.array([]), np.array([])]),
        "rows-transposed": (["mu", "power", "flag"],
                            np.array([(1e15, 2.5e-14, 0.0), (3e14, 1e-4, 0.0),
                                      (1.0, 1e17, 1.0)]).T),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_matches_per_value_format(self, case):
        header, columns = case
        assert cli._csv(header, columns) == reference_csv(header, columns)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_refused(self, bad):
        columns = [np.arange(4.0), np.array([1.0, 2.0, bad, 4.0]), np.array([bad] * 4)]
        with pytest.raises(RuntimeError, match="non-finite values in column b$"):
            cli._csv(["a", "b", "c"], columns)

    def test_non_finite_value_writes_no_file(self, tmp_path, capsys, monkeypatch):
        transfer = cli.transfer_magnitude

        def nan_at_second_load(model, rx, omega):
            mag = transfer(model, rx, omega)
            if rx.load_resistance == 5e5:
                mag[len(mag) // 2] = math.nan
            return mag

        monkeypatch.setattr(cli, "transfer_magnitude", nan_at_second_load)
        assert main(["transfer", "--rl", "5e4,5e5", "--out", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: refusing to write non-finite values in column transfer_ohm\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["transfer", "ratio"])
@pytest.mark.parametrize("kind", ["lc", "tline"])
def test_curve_files_match_the_per_value_reference(tmp_path, kind, command):
    """Each per-R_L file holds the bytes of one `%.17g` per value of the functionals."""
    doc = serialize_config(default_config())
    if kind == "tline":
        doc["channel"] = dict(DEFAULT_TLINE_CHANNEL)
        doc["band"] = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(path), "--out", str(out / "c.csv")]) == 0
    config = parse_config(doc)
    assert len(config.load_resistances) == 3
    grid = build_grid(config.band, config.channel, refine_levels=config.refine_levels)
    names = []
    for rl in config.load_resistances:
        rx = replace(config.receiver, load_resistance=rl)
        if command == "transfer":
            header = ["omega_rad_s", "transfer_ohm"]
            columns = [grid.nodes, linkmodel.transfer_magnitude(config.channel, rx, grid)]
        else:
            header = ["omega_rad_s", "ratio"]
            columns = [grid.nodes, linkmodel.ratio_alpha_beta(config.channel, rx, grid)]
        names.append(f"c_rl{rl:g}.csv")
        assert (out / names[-1]).read_text() == reference_csv(header, columns), names[-1]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


class TestParserReuse:
    def test_not_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import rclink.cli as c; print(c._build_parser.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "0\n"

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    @staticmethod
    def run_artifact(argv, out_dir):
        out_dir.mkdir()
        assert main(argv + ["--out", str(out_dir / "o.csv")]) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    # (a run that sets a value, the same command without it)
    REUSE = {
        "rl": (["transfer", "--rl", "123456"], ["transfer"]),
        "power": (["waterfill", "--power", "1e-13"], ["waterfill"]),
        "config": (["ratio", "--config", "CONFIG"], ["ratio"]),
    }

    @pytest.mark.parametrize("case", REUSE.values(), ids=REUSE.keys())
    def test_no_value_carries_over(self, tmp_path, case):
        config = write_config(tmp_path, {"grid.refine_levels": 2})
        with_value = [str(config) if a == "CONFIG" else a for a in case[0]]
        cli._build_parser.cache_clear()
        fresh = self.run_artifact(case[1], tmp_path / "fresh")
        assert self.run_artifact(with_value, tmp_path / "with_value") != fresh
        assert self.run_artifact(case[1], tmp_path / "without") == fresh

    def test_verify_after_an_artifact_command(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        fresh = (main(["verify"]), capsys.readouterr())
        self.run_artifact(["sweep"], tmp_path / "sweep")
        capsys.readouterr()
        assert (main(["verify"]), capsys.readouterr()) == fresh


class TestFlagOverrides:
    def test_every_flag_names_a_default_config_key(self):
        for flag, (section, key, _) in _FLAGS.items():
            assert key in DEFAULT_CONFIG[section], flag

    def test_power_flag_wins_over_the_file(self, tmp_path):
        config = write_config(tmp_path, {"analysis.power_w": 1e-13})
        out = tmp_path / "wf.csv"
        assert main(["waterfill", "--config", str(config), "--power", "3e-14",
                     "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "wf_summary.json").read_text())
        assert summary["power_W"] == pytest.approx(3e-14, rel=1e-12)

    def test_flag_creates_the_missing_section(self, tmp_path):
        doc = serialize_config(default_config())
        del doc["analysis"]
        config = tmp_path / "noanalysis.json"
        config.write_text(json.dumps(doc))
        a, b = tmp_path / "a", tmp_path / "b"
        for argv, out in ((["--config", str(config)], a), ([], b)):
            out.mkdir()
            assert main(["waterfill", *argv, "--power", "1e-13", "--out", str(out / "w.csv")]) == 0
        assert [p.read_bytes() for p in sorted(a.iterdir())] == \
            [p.read_bytes() for p in sorted(b.iterdir())]
        summary = json.loads((a / "w_summary.json").read_text())
        assert summary["power_W"] == pytest.approx(1e-13, rel=1e-12)


class TestReadme:
    def test_cli_table_lists_every_command(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        listed = [line.split("`")[1] for line in cli_section.splitlines()
                  if line.startswith("| `")]
        assert sorted(listed) == sorted([*_COMMANDS, "verify"])

    def test_flags_paragraph_names_every_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        paragraph = readme.split("\nFlags: ")[1].split("\n\n")[0]
        assert set(re.findall(r"`(--[a-z-]+)", paragraph)) == {"--config", "--out", *_FLAGS}

    def test_names_no_other_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
        assert named <= {"--config", "--out", *_FLAGS}

    def test_names_no_private_attribute(self):
        # the design of private helpers lives in their docstrings; a key suffix
        # such as `_hz` is no attribute
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        modules = [importlib.import_module(f"rclink.{m.name}")
                   for m in pkgutil.iter_modules(rclink.__path__)]
        private = {name for m in modules for name in vars(m)
                   if name.startswith("_") and not name.startswith("__")}
        assert set(re.findall(r"(?<!\w)_\w+", readme)) & private == set()

    def test_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        code = readme.split("\n## Library example\n")[1].split("```python\n")[1].split("```")[0]
        namespace = {}
        exec(code, namespace)
        printed = float(capsys.readouterr().out.splitlines()[0])
        assert printed == namespace["sol"].capacity / namespace["band"].bandwidth
        assert printed == pytest.approx(0.500, rel=0.03)  # Table 1's tolerance


class TestPackaging:
    def test_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [rclink.__version__]

    def test_exports_the_types_its_functions_return(self):
        # every rclink class that an exported function returns, or that a field of
        # one holds, is exported under its own name: `from rclink import SweepPoint`
        def ours(hint):
            return {t for t in (hint, *typing.get_args(hint))
                    if isinstance(t, type) and t.__module__.startswith("rclink.")}

        returned = set().union(*(ours(typing.get_type_hints(fn).get("return"))
                                 for fn in vars(rclink).values() if inspect.isfunction(fn)))
        held = set().union(*(ours(h) for t in returned for h in typing.get_type_hints(t).values()))
        assert {rclink.SweepResult, rclink.SweepPoint, rclink.OutputPsd} <= returned | held
        for t in returned | held:
            assert getattr(rclink, t.__name__, None) is t, t.__name__

    def test_public_names_have_one_home(self):
        # a function or class is public exactly when its name has no leading
        # underscore and the `__all__` of the module defining it lists it; the
        # package exports its layers' lists, its submodules and nothing else
        modules = {m.name: importlib.import_module(f"rclink.{m.name}")
                   for m in pkgutil.iter_modules(rclink.__path__)}
        unlisted, unresolved = set(), set()
        for mod in modules.values():
            listed = getattr(mod, "__all__", [])
            unlisted |= {f"{mod.__name__}.{name}" for name, obj in vars(mod).items()
                         if (inspect.isfunction(obj) or inspect.isclass(obj))
                         and obj.__module__ == mod.__name__
                         and not name.startswith("_") and name not in listed}
            unresolved |= {f"{mod.__name__}.{name}" for name in listed if not hasattr(mod, name)}
        assert unlisted == set()
        assert unresolved == set()
        layers = [name for m in ("channels", "config", "linkmodel", "waterfill")
                  for name in modules[m].__all__]
        assert len(layers) == len(set(layers))
        submodules = {name for name in modules if not name.startswith("_")}
        assert {name for name in vars(rclink) if not name.startswith("_")} == {*layers, *submodules}


class TestReproduceScript:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"

    def test_help_writes_nothing(self, tmp_path):
        src = str(self.SCRIPT.parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, str(self.SCRIPT), "--help"], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage:")
        assert list(tmp_path.iterdir()) == []

    def test_every_artifact_rerun_identical(self, tmp_path):
        script = self.SCRIPT
        spec = importlib.util.spec_from_file_location("reproduce_results", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        first, second = tmp_path / "first", tmp_path / "second"
        assert module.run(first) == 0
        assert module.run(second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 20
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
