"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Every workload is driven in cycles. Cycle ``c`` of seed ``s`` draws its jobs
from ``numpy.random.default_rng([s, c])``, so a seed always gives the same
inputs and a run of any length repeats the prefix of a shorter one. The
program receives only generated inputs: argv lists, a JSON config file and
rclink dataclasses.

A workload has four methods, called in this order for every job:

- ``run(spec)``: the program's work, the only part that is timed;
- ``collect(spec, raw)``: read what the job produced (files, stdout), then
  remove its files so the next job starts from an empty directory;
- ``check(spec, result)``: ``None`` if the output is correct, else a reason;
- ``fingerprint(result)``: exact counts and digests that repeat for a seed.

``tail_pct`` is the percentile reported as ``job_tail_s``, in steps of 5:
high, but leaving at least ten jobs beyond it down to a job count below the
fewest seen in 30-second runs on a 2-vCPU host, so that a somewhat slower
host keeps the ten. ``block_cycles`` is the number of cycles per block; the
traced run alternates traced and untraced blocks.
``probe_kind`` names the host speed probe kernel (perfbench/hostspeed.py)
closest to the workload's work, and ``probe_passes`` is the number of its
passes run between jobs, about a tenth of a job's time.
Attributes named as references (``table1``, ``power_scale``, ``expected``)
exist so that perfbench/selfcheck.py can feed a wrong one.

Calls into rclink go through module attributes (``waterfill.build_grid``,
``cli.main``) so that the traced run can replace them with timed wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

from rclink import cli, config, linkmodel, waterfill
from rclink.channels import TLineShortedTapped
from rclink.linkmodel import Band

# Published Table 1: (R_L ohm, lower bound, spectral efficiency, upper bound),
# all in b/s/Hz, with the acceptance tolerances of the repository's tests.
TABLE1 = ((5e4, 0.426, 0.500, 17.6), (5e5, 3.58, 3.67, 21.0), (5e6, 9.69, 9.70, 24.3))
TABLE1_UPPER_ABS = 0.05
TABLE1_LOWER_REL = 0.02
TABLE1_SE_REL = 0.03
POWER_REL_TOL = 1e-6
VERIFY_CHECKS = (
    "open-line series vs closed form",
    "shorted-line series vs closed form",
    "shorted-line endpoint voltage null",
    "LC impulse-integral vs closed form",
    "mutual reactance vs Helmholtz solution",
)

REF_POWER_W = 2.68e-14
POWER_SPAN = (0.2, 25.0)  # multiples of the reference power, log-uniform
RL_SPAN_OHM = (5e4, 5e6)  # log-uniform
TLINE_BAND = {"carrier_hz": 3.0e9, "bandwidth_hz": 1.0e7}
WAVE_SPEED = 3.0e8
POLE_SPAN = (300, 2000)  # in-band poles of a tline_scan geometry, log-uniform
POINTS_PER_POLE = 8
TLINE_CYCLE = 8  # tline_scan jobs per cycle, one per stratum of the pole span
GOLDEN_RATIO = (math.sqrt(5) - 1) / 2


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class ReproduceCli:
    """In-process ``rclink`` commands of ``scripts/reproduce_results.py``, less ``verify``.

    One job runs table1/transfer/ratio/waterfill/sweep on the built-in LC
    config, then transfer/ratio/waterfill/sweep on the 5-pole shorted-line
    config, writing every artifact into an output directory.
    """

    name = "reproduce_cli"
    tail_pct = 90  # ten beyond down to 100 jobs; 158 to 270 seen
    block_cycles = 10
    probe_kind = "interpreter"
    probe_passes = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out)
        doc = json.loads(json.dumps(config.DEFAULT_CONFIG))
        doc["channel"] = dict(config.DEFAULT_TLINE_CHANNEL)
        doc["band"] = dict(TLINE_BAND)
        self.tline_config = os.path.join(workdir, "tline_config.json")
        with open(self.tline_config, "w") as fh:
            json.dump(doc, fh, indent=2)
        # the program parses this file on every --config run; load it once
        # here too so a malformed input stops the benchmark before timing
        config.load_config(self.tline_config)
        self.table1 = TABLE1

    def cycle(self, c: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, c])
        power = float(_log_uniform(rng, *POWER_SPAN)) * REF_POWER_W
        # one draw from each third of the log range keeps the three values
        # (and the per-R_L file names derived from them) distinct
        lo, hi = (math.log(v) for v in RL_SPAN_OHM)
        edges = np.linspace(lo, hi, 4)
        rls = ",".join(f"{math.exp(rng.uniform(a, b)):.4g}" for a, b in zip(edges, edges[1:]))
        out = self.out
        argvs = [["table1", "--out", f"{out}/lc_table1.csv"]]
        for tag, cfg in (("lc", []), ("tline", ["--config", self.tline_config])):
            argvs += [
                ["transfer", *cfg, "--rl", rls, "--out", f"{out}/{tag}_transfer.csv"],
                ["ratio", *cfg, "--rl", rls, "--out", f"{out}/{tag}_ratio.csv"],
                ["waterfill", *cfg, "--power", repr(power), "--out", f"{out}/{tag}_density.csv"],
                ["sweep", *cfg, "--out", f"{out}/{tag}_sweep.csv"],
            ]
        return [{"argvs": argvs, "power": power, "files": 1 + 2 * 9}]

    def run(self, spec):
        statuses = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in spec["argvs"]:
                statuses.append(cli.main(argv))
        return statuses

    def collect(self, spec, statuses):
        files = {}
        for name in sorted(os.listdir(self.out)):
            path = os.path.join(self.out, name)
            with open(path, "rb") as fh:
                files[name] = fh.read()
            os.unlink(path)
        return {"statuses": statuses, "files": files}

    def check(self, spec, result):
        bad = [(argv[0], rc) for argv, rc in zip(spec["argvs"], result["statuses"]) if rc != 0]
        if bad:
            return f"nonzero exit {bad}"
        files = result["files"]
        if len(files) != spec["files"]:
            return f"wrote {len(files)} files, expected {spec['files']}"
        tables = {}
        for name, data in files.items():
            if name.endswith(".csv"):
                header, _, body = data.partition(b"\n")
                values = np.array(b",".join(body.split()).split(b","), dtype=float)
                values = values.reshape(-1, header.count(b",") + 1)
                if values.size == 0 or not np.all(np.isfinite(values)):
                    return f"{name}: empty or non-finite values"
                tables[name] = values
        for rl_row, ref in zip(tables["lc_table1.csv"], self.table1):
            rl, lower, se, upper = rl_row
            if rl != ref[0]:
                return f"table1 R_L {rl:g} != {ref[0]:g}"
            if abs(upper - ref[3]) > TABLE1_UPPER_ABS:
                return f"table1 upper {upper:.4g} vs {ref[3]} at R_L {rl:g}"
            if _rel_err(lower, ref[1]) > TABLE1_LOWER_REL:
                return f"table1 lower {lower:.4g} vs {ref[1]} at R_L {rl:g}"
            if _rel_err(se, ref[2]) > TABLE1_SE_REL:
                return f"table1 SE {se:.4g} vs {ref[2]} at R_L {rl:g}"
            if not lower < se < upper:
                return f"table1 lower < SE < upper fails at R_L {rl:g}"
        for tag in ("lc", "tline"):
            summary = json.loads(files[f"{tag}_density_summary.json"])
            if _rel_err(summary["power_W"], spec["power"]) > POWER_REL_TOL:
                return f"{tag} waterfill power {summary['power_W']!r} vs budget {spec['power']!r}"
            sweep = tables[f"{tag}_sweep.csv"]
            order = np.argsort(sweep[:, 1], kind="stable")
            if np.any(np.diff(sweep[order, 2]) < 0):
                return f"{tag} sweep capacity decreases as power rises"
        return None

    def fingerprint(self, result):
        files = result["files"]
        return {
            "files": len(files),
            "bytes": sum(len(b) for b in files.values()),
            "csv_rows": sum(b.count(b"\n") - 1 for n, b in files.items() if n.endswith(".csv")),
            "sha256": _sha256(n.encode() + b"\0" + b for n, b in files.items()),
        }


class TlineScan:
    """Library calls on seeded shorted tapped lines of a few hundred to 2,000 poles.

    One job: ``build_grid`` with 8 base points per in-band pole, then
    ``solve_for_power``, ``capacity_lower_bound`` and ``capacity_upper_bound``.
    A cycle holds one geometry from each of ``TLINE_CYCLE`` equal strata of
    the log pole span, so every cycle carries the same mix of sizes. Inside
    a stratum, the position of cycle ``c`` is a seeded start plus ``c``
    times the golden ratio, modulo 1, so that a few consecutive cycles cover
    each stratum evenly and runs with different seeds time the same spread
    of sizes, down to the percentiles reported.
    """

    name = "tline_scan"
    # ten beyond down to 40 jobs (48 to 64 seen); p75 also sits on a boundary
    # between size strata, so it does not hinge on the draws inside one stratum
    tail_pct = 75
    block_cycles = 1
    probe_kind = "arrays"
    probe_passes = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        base = config.default_config()
        self.receiver = base.receiver
        self.band = Band(2 * math.pi * TLINE_BAND["carrier_hz"], TLINE_BAND["bandwidth_hz"])
        self.refine_levels = base.refine_levels
        self.power_scale = 1.0  # reference budget over requested budget
        self.starts = np.random.default_rng([seed]).uniform(size=TLINE_CYCLE)

    def cycle(self, c: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, c])
        lo, hi = (math.log(v) for v in POLE_SPAN)
        edges = np.linspace(lo, hi, TLINE_CYCLE + 1)
        specs = []
        for i in rng.permutation(TLINE_CYCLE):
            u = (self.starts[i] + c * GOLDEN_RATIO) % 1.0
            poles = math.exp(edges[i] + u * (edges[i + 1] - edges[i]))
            # in-band poles of a line of length L: 2 * B * L / c0
            length = poles * WAVE_SPEED / (2 * self.band.bandwidth)
            x_t, x_r = rng.uniform(0.05 * length, 0.95 * length, 2)
            rl = float(_log_uniform(rng, *RL_SPAN_OHM))
            specs.append({
                "model": TLineShortedTapped(50.0, WAVE_SPEED, length, float(x_t), float(x_r)),
                "receiver": dataclasses.replace(self.receiver, load_resistance=rl),
                "power": float(_log_uniform(rng, *POWER_SPAN)) * REF_POWER_W,
                "base_points": POINTS_PER_POLE * round(poles),
            })
        return specs

    def run(self, spec):
        model, rx, p_t = spec["model"], spec["receiver"], spec["power"]
        grid = waterfill.build_grid(self.band, model, spec["base_points"], self.refine_levels)
        sol = waterfill.solve_for_power(model, rx, grid, p_t)
        lower = linkmodel.capacity_lower_bound(model, rx, self.band, p_t, grid)
        upper = linkmodel.capacity_upper_bound(rx, self.band, p_t)
        return grid, sol, lower, upper

    def collect(self, spec, raw):
        if raw is None:
            return None
        grid, sol, lower, upper = raw
        return {
            "nodes": len(grid.nodes),
            "poles": len(grid.pole_nodes),
            "values": (sol.capacity, sol.power, lower, upper),
        }

    def check(self, spec, result):
        capacity, power, lower, upper = result["values"]
        if not lower < capacity < upper:
            return f"sandwich fails: lower {lower!r}, C {capacity!r}, upper {upper!r}"
        budget = spec["power"] * self.power_scale
        if _rel_err(power, budget) > POWER_REL_TOL:
            return f"power residual {_rel_err(power, budget):.2e} > {POWER_REL_TOL:g}"
        return None

    def fingerprint(self, result):
        return {
            "nodes": result["nodes"],
            "poles": result["poles"],
            "sha256": _sha256([repr(result["values"]).encode()]),
        }


class VerifyOracles:
    """In-process ``rclink verify``: the five bounce-series and impulse checks.

    The checks are fixed by the program, so the seed changes no input here.
    """

    name = "verify_oracles"
    tail_pct = 75  # ten beyond down to 40 jobs; 47 to 72 seen
    block_cycles = 4
    probe_kind = "interpreter"
    probe_passes = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.expected = VERIFY_CHECKS

    def cycle(self, c: int) -> list[dict]:
        return [{"argv": ["verify"]}]

    def run(self, spec):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            status = cli.main(spec["argv"])
        return status, buf.getvalue()

    def collect(self, spec, raw):
        if raw is None:
            return None
        status, stdout = raw
        return {"status": status, "stdout": stdout}

    def check(self, spec, result):
        if result["status"] != 0:
            return f"nonzero exit {result['status']}"
        lines = result["stdout"].splitlines()
        if len(lines) != len(self.expected):
            return f"{len(lines)} checks reported, expected {len(self.expected)}"
        for line, name in zip(lines, self.expected):
            if not line.startswith(f"PASS: {name} ("):
                return f"unexpected check line: {line}"
        return None

    def fingerprint(self, result):
        return {
            "checks": len(result["stdout"].splitlines()),
            "sha256": _sha256([result["stdout"].encode()]),
        }


WORKLOADS = {w.name: w for w in (ReproduceCli, TlineScan, VerifyOracles)}
