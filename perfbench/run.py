#!/usr/bin/env python3
"""Benchmark of rclink: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce_cli --seed 1 --seconds 20 --trace 0

The workload runs in this process, one job after another, with no extra
threads. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced blocks of jobs with blocks in which every
rclink layer is wrapped in spans (perfbench/spans.py), and reports the
per-layer metrics and the tracing overhead. Timed figures are normalised by
a host speed probe run between jobs (perfbench/hostspeed.py); the wall
figures are reported alongside. Every job's output is checked; a job that
raises, exits nonzero or fails its check counts as failed and the run goes
on. The last line of stdout is one JSON object: correct, attempted, failed
and metrics. A report with host, percentile, failure, fingerprint and wall
figures is written to ``.bench_out/``, and the traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a valid result."""


def _import_rclink():
    sys.path.insert(0, str(SRC))
    try:
        import rclink
    except ImportError as exc:
        raise BenchmarkError(f"cannot import rclink from {SRC}: {exc}") from exc
    if Path(rclink.__file__).resolve().parent.parent != SRC:
        raise BenchmarkError(f"rclink resolved to {rclink.__file__}, not under {SRC}")
    return rclink


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup_time(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports rclink and loads the inputs."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir],
                       check=True)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir)


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(normalised, wall) set-up times of SETUP_RUNS fresh interpreters.

    Each is normalised by the mean of the reference-child readings
    (hostspeed.start_reading) taken just before and just after it.
    """
    before = hostspeed.start_reading()
    out = []
    for _ in range(SETUP_RUNS):
        wall = setup_time(workload, seed)
        after = hostspeed.start_reading()
        out.append((wall / ((before + after) / 2), wall))
        before = after
    return out


class Phase:
    """Outcome of every job of one timed phase, in order."""

    def __init__(self):
        self.times = []
        # mean of the host speed probe readings just before and just after each job
        self.slowness = []
        self.errors = []
        self.fingerprints = []
        self.cycle_ends = []  # job count after each cycle

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)

    def normalised_times(self) -> list[float]:
        """Job wall times divided by the host slowness measured around each job."""
        return [t / slow for t, slow in zip(self.times, self.slowness)]

    def jobs_per_s(self, times: list[float]) -> float:
        """Completed jobs over the sum of their ``times`` (wall or normalised)."""
        return (len(self.times) - self.failed) / sum(times)


def run_job(wl, spec):
    """Time ``wl.run(spec)`` alone; then collect, check and fingerprint its output."""
    t0 = time.perf_counter()
    try:
        raw, error = wl.run(spec), None
    except Exception as exc:  # a failed job is counted and the run goes on
        raw, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    # collect even after a failure, so that no file of this job is left over
    result = wl.collect(spec, raw)
    if error is None:
        try:
            error = wl.check(spec, result)
        except Exception as exc:  # malformed output fails the job, not the run
            error = f"check raised {type(exc).__name__}: {exc}"
    fingerprint = wl.fingerprint(result) if error is None else {"failed": error}
    return elapsed, error, fingerprint


def measure(wl, seconds: float, traced=None) -> list[Phase]:
    """Run whole cycles of jobs until ``seconds`` of wall time have passed.

    With ``traced`` (a context manager factory), blocks of ``wl.block_cycles``
    cycles alternate between untraced and traced, each kind in its own Phase,
    and the run ends on a whole pair of blocks: interleaving keeps host speed
    drift out of the measured tracing overhead. The host speed probe runs
    between jobs, outside their timed regions.
    """
    probe = hostspeed.Probe(wl.probe_kind)
    probe.sample(1)  # warm-up
    before = probe.sample(wl.probe_passes)
    phases = [Phase(), Phase()] if traced else [Phase()]
    period = 2 * wl.block_cycles if traced else 1
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        in_trace = bool(traced) and cycle // wl.block_cycles % 2 == 1
        phase = phases[in_trace]
        with traced() if in_trace else contextlib.nullcontext():
            for spec in wl.cycle(cycle):
                elapsed, error, fingerprint = run_job(wl, spec)
                after = probe.sample(wl.probe_passes)
                phase.slowness.append((before + after) / 2)
                before = after
                phase.times.append(elapsed)
                phase.errors.append(error)
                phase.fingerprints.append(fingerprint)
        phase.cycle_ends.append(len(phase.times))
        cycle += 1
        if cycle % period == 0 and time.perf_counter() >= deadline:
            return phases


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile and the number of samples above its rank."""
    ordered = sorted(times)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


def run_fingerprint(phase: Phase) -> dict:
    """Exact counts and a digest over the first cycle, which every run completes."""
    first = phase.fingerprints[:phase.cycle_ends[0]]
    summary = {}
    for fp in first:
        for key, value in fp.items():
            if isinstance(value, int):
                summary[key] = summary.get(key, 0) + value
    summary["jobs"] = len(first)
    summary["sha256"] = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    return summary


def check_determinism(workload: str, seed: int, warmup_fp: dict, phase: Phase) -> dict:
    """Fail on outputs that differ between runs of one seed on one source tree.

    ``phase`` starts at cycle 0, whose first job the warm-up also ran.
    """
    if phase.fingerprints[0] != warmup_fp:
        raise BenchmarkError(f"rerun of the first job differs: {warmup_fp} vs {phase.fingerprints[0]}")
    fingerprint = run_fingerprint(phase)
    state = OUT / "fingerprints.json"
    known = json.loads(state.read_text()) if state.exists() else {}
    key = f"{_digest(SRC / 'rclink')}/{_digest(HERE)}/{workload}/{seed}"
    if key in known and known[key] != fingerprint:
        raise BenchmarkError(f"work fingerprint of {key} changed: {known[key]} vs {fingerprint}")
    known[key] = fingerprint
    tmp = state.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, state)
    return fingerprint


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_rclink()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    # set-up runs first: a child process between jobs slows the jobs after it
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = spans.Tracer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        _, warmup_error, warmup_fp = run_job(wl, wl.cycle(0)[0])
        phases = measure(wl, args.seconds, (lambda: spans.installed(tracer)) if args.trace else None)
        fingerprint = check_determinism(args.workload, args.seed, warmup_fp, phases[0])
    finally:
        shutil.rmtree(workdir)

    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors if e is not None]
    phase = phases[-1]
    times = phase.normalised_times()
    tail_s, beyond = tail(times, wl.tail_pct)
    wall = {
        "jobs_per_s": phase.jobs_per_s(phase.times),
        "job_p50_s": statistics.median(phase.times),
        "job_tail_s": tail(phase.times, wl.tail_pct)[0],
        "host_slowness_median": statistics.median(phase.slowness),
    }
    if args.trace:
        untraced = phases[0]
        jobs = len(phase.times)
        # span times are normalised like job times, by the traced jobs' probes
        slowness = sum(phase.times) / sum(times)
        values = {k: v / slowness if k.endswith((".s", ".self_s")) else v
                  for k, v in tracer.per_job(jobs).items()}
        values["cli.bytes_written"] = sum(fp.get("bytes", 0) for fp in phase.fingerprints) / jobs
        values["cli.files_written"] = sum(fp.get("files", 0) for fp in phase.fingerprints) / jobs
        traced_rate = phase.jobs_per_s(times)
        untraced_rate = untraced.jobs_per_s(untraced.normalised_times())
        values["trace.jobs_per_s"] = traced_rate
        values["trace.untraced_jobs_per_s"] = untraced_rate
        values["trace.overhead_frac"] = untraced_rate / traced_rate - 1
        listed = spec["per_layer"]
    else:
        wall["setup_s"] = statistics.median(w for _, w in setup)
        values = {
            "setup_s": statistics.median(n for n, _ in setup),
            "jobs_per_s": phase.jobs_per_s(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(), "src_digest": _digest(SRC / "rclink"),
        "bench_digest": _digest(HERE),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": errors[:20], "warmup_error": warmup_error,
        "job_tail": {"percentile": wl.tail_pct, "jobs": len(phase.times), "beyond": beyond},
        "setup_runs_s": setup, "fingerprint": fingerprint, "metrics": metrics,
        "wall": wall,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"host {report['host']}")
    print(f"jobs attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4g} fraction")
    for error in errors[:5]:
        print(f"  failed job: {error}")
    if not args.trace:
        print(f"job_tail_s is the p{wl.tail_pct} of {len(phase.times)} jobs "
              f"({beyond} beyond it)")
    print(f"work fingerprint {fingerprint}")
    print("wall, not normalised: " + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
