import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rclink import TLineOpenEnds, cli, default_config, parse_config, serialize_config
from rclink.channels import CHANNEL_KINDS, poles_in_interval
from rclink.cli import _COMMANDS, _FLAGS, main
from rclink.config import DEFAULT_CONFIG, DEFAULT_TLINE_CHANNEL, ConfigError
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


class TestTransferCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "transfer.csv"
        assert main(["transfer", "--out", str(out), "--rl", "5e4,5e6"]) == 0
        peaks = {}
        for rl in ("50000", "5e+06"):
            header, data = read_csv(tmp_path / f"transfer_rl{rl}.csv")
            assert header == ["omega_rad_s", "freq_ghz", "transfer_ohm"]
            assert np.all(np.isfinite(data))
            peak_idx = np.argmax(data[:, 2])
            # peak at the node nearest the resonance
            nearest = np.argmin(np.abs(data[:, 0] - LC_MODEL.resonance))
            assert peak_idx == nearest
            peaks[rl] = data[peak_idx, 2]
        assert peaks["5e+06"] > peaks["50000"]
        assert peaks["50000"] == pytest.approx(5e4, rel=1e-9)

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
        # switching to the SI-exact constant moves the SEs by well under 0.5%
        path = write_config(tmp_path, {"receiver.boltzmann_j_per_k": 1.380649e-23})
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

    def test_unrefined_grid_accepted(self, tmp_path):
        # the 512 base nodes alone resolve the lower bound once its
        # every-other-node check keeps the last node of an even-sized grid
        out = tmp_path / "t.csv"
        assert main(["table1", "--refine", "0", "--out", str(out)]) == 0
        _, lower, se, upper = read_csv(out)[1].T
        assert np.all((lower < se) & (se < upper))


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    def test_takes_no_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid-points", "3"])
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

    # each value reaches a solver or the grid builder, which refuses it
    BAD_INPUTS = {
        "power-zero": ["waterfill", "--power", "0"],
        "power-negative": ["waterfill", "--power", "-1"],
        "grid-points-zero": ["waterfill", "--grid-points", "0"],
        "grid-points-8": ["waterfill", "--grid-points", "8"],
        "refine-negative": ["waterfill", "--refine", "-1"],
        "refine-30": ["sweep", "--refine", "30"],
        "refine-2000": ["sweep", "--refine", "2000"],
        "rl-negative": ["transfer", "--rl", "-5"],
        "rl-second-negative": ["transfer", "--rl", "5e4,-5"],
        "rl-same-file-name": ["ratio", "--rl", "123456.7,123456.8"],
        "mu-ascending": ["sweep", "--mu", "1,2"],
        "config-base-points-8": ["transfer", "--config", "CONFIG"],
        "table1-16-nodes": ["table1", "--grid-points", "16", "--refine", "0"],
        "table1-40-nodes": ["table1", "--grid-points", "40", "--refine", "0"],
        # flags obey the config file's number rule
        "power-nan": ["waterfill", "--power", "nan"],
        "power-inf": ["waterfill", "--power", "inf"],
        "mu-nan": ["sweep", "--mu", "nan"],
        "rl-nan": ["transfer", "--rl", "nan"],
        "rl-inf": ["transfer", "--rl", "inf"],
        "rl-beyond-float": ["transfer", "--rl", "1e400"],
        "grid-points-fraction": ["waterfill", "--grid-points", "512.9"],
        # only an absent --config means the built-in setup
        "config-empty-path": ["waterfill", "--config", ""],
    }

    @pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_2(self, tmp_path, capsys, argv):
        config = write_config(tmp_path, {"grid.base_points": 8})
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if "" in argv:  # an empty --config path shows quoted, not as nothing
            assert "cannot read config '': " in err
        assert list(tmp_path.iterdir()) == [config]

    # a number is a finite JSON int or float, never a bool or a string; grid
    # values are integers.  The id up to any "-" is the config key.
    WRONG_TYPES = {
        "channel.inductance_h": "abc",
        "receiver.amp_gain": None,
        "band.bandwidth_hz": "1e7",
        "analysis.load_resistances_ohm": 5e4,
        "grid.base_points": None,
        "analysis.mu_list": 5,
        "receiver": 5,
        "grid.base_points-fraction": 512.9,
        "grid.refine_levels-bool": True,
        "analysis.power_w-string": "2.68e-14",
        "analysis.load_resistances_ohm-string": ["5e4"],
        "receiver.amp_gain-bool": True,
        "channel.inductance_h-bool": True,
        "receiver.temperature_k-nan": math.nan,
        "analysis.power_w-infinity": math.inf,
        "band.bandwidth_hz-beyond-float": 10**400,
    }

    @pytest.mark.parametrize("key", WRONG_TYPES)
    def test_wrong_typed_config_value_exits_2(self, tmp_path, capsys, key):
        config = write_config(tmp_path, {key.split("-")[0]: self.WRONG_TYPES[key]})
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [config]

    # (command, flag, its text, the config key it overrides, that value in a file)
    SAME_VALUE = {
        "power-nan": ("waterfill", "--power", "nan", "analysis.power_w", math.nan),
        "power-infinity": ("waterfill", "--power", "inf", "analysis.power_w", math.inf),
        "rl-beyond-float": ("transfer", "--rl", "5e4,1e400", "analysis.load_resistances_ohm",
                            [5e4, math.inf]),
        "rl-string": ("transfer", "--rl", "5e4,abc", "analysis.load_resistances_ohm",
                      [5e4, "abc"]),
        "mu-nan": ("sweep", "--mu", "nan", "analysis.mu_list", [math.nan]),
        "refine-string": ("waterfill", "--refine", "x", "grid.refine_levels", "x"),
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

        def nan_at_second_load(model, rx, nodes):
            mag = transfer(model, rx, nodes)
            if rx.load_resistance == 5e5:
                mag[len(mag) // 2] = math.nan
            return mag

        monkeypatch.setattr(cli, "transfer_magnitude", nan_at_second_load)
        assert main(["transfer", "--rl", "5e4,5e5", "--out", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: refusing to write non-finite values in column transfer_ohm\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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
        config = write_config(tmp_path, {"grid.base_points": 100})
        with_value = [str(config) if a == "CONFIG" else a for a in case[0]]
        cli._build_parser.cache_clear()
        fresh = self.run_artifact(case[1], tmp_path / "fresh")
        assert self.run_artifact(with_value, tmp_path / "with_value") != fresh
        assert self.run_artifact(case[1], tmp_path / "without") == fresh

    def test_verify_after_an_artifact_command(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        fresh = (main(["verify"]), capsys.readouterr())
        self.run_artifact(["sweep", "--mu", "1e16,1e15"], tmp_path / "sweep")
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

    def test_grid_flag_creates_the_missing_section(self, tmp_path):
        doc = serialize_config(default_config())
        del doc["grid"]
        config = tmp_path / "nogrid.json"
        config.write_text(json.dumps(doc))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ratio", "--config", str(config), "--grid-points", "100", "--rl", "5e4",
                     "--out", str(a)]) == 0
        assert main(["ratio", "--grid-points", "100", "--refine", "6", "--rl", "5e4",
                     "--out", str(b)]) == 0
        ratio_a = (tmp_path / "a_rl50000.csv").read_bytes()
        assert ratio_a == (tmp_path / "b_rl50000.csv").read_bytes()
        assert len(ratio_a.splitlines()) - 1 == len(build_grid(
            default_config().band, LC_MODEL, 100, 6).nodes)


class TestReadme:
    def test_cli_table_lists_every_command(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        listed = [line.split("`")[1] for line in cli_section.splitlines()
                  if line.startswith("| `")]
        assert sorted(listed) == sorted([*_COMMANDS, "verify"])


class TestReproduceScript:
    def test_every_artifact_rerun_identical(self, tmp_path):
        script = Path(__file__).parents[1] / "scripts" / "reproduce_results.py"
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
