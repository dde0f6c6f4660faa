"""The benchmark's workloads still run on the library and pass their own checks.

perfbench/ drives rclink through public names (``waterfill.build_grid``,
``sweep(...).points``, ``cli.main``) and wraps them in spans when traced.  One
traced job per workload, cycle 0 of seed 1, catches a library change that
would make every benchmark job fail.  A tline_scan job samples its channel
once, in ``build_grid``; the solvers and the lower bound read the grid.
A reproduce_cli job draws its transfer and ratio curves through the public
functionals, one call per load resistance, and reads 51 rows from each of its
two sweeps.  A verify_oracles job sums every
term and sample its checks name, so a speedup cannot come from shortening the
oracles.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_job_passes_its_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    spec = workload.cycle(0)[0]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        raw = workload.run(spec)
    result = workload.collect(spec, raw)
    assert workload.check(spec, result) is None
    assert workload.fingerprint(result)
    assert tracer.spans, "no rclink call was traced"


def test_tline_scan_evaluates_the_channel_once(tmp_path):
    workload = workloads.WORKLOADS["tline_scan"](1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.run(workload.cycle(0)[0])
    assert tracer.counts["channels.eval_reactances.calls"] == 1


def test_reproduce_cli_curves_call_the_public_functionals(tmp_path):
    workload = workloads.WORKLOADS["reproduce_cli"](1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.run(workload.cycle(0)[0])
    # three load resistances on each of the LC and the shorted-line configs
    assert tracer.counts["linkmodel.transfer_magnitude.calls"] == 6
    assert tracer.counts["linkmodel.ratio_alpha_beta.calls"] == 6


def test_reproduce_cli_sweeps_read_their_points(tmp_path):
    # perfbench counts len(sweep(...).points) + 1 rows per call: 50 points and
    # the termination on each of the LC and the shorted-line grids
    workload = workloads.WORKLOADS["reproduce_cli"](1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.run(workload.cycle(0)[0])
    assert tracer.counts["waterfill.sweep.calls"] == 2
    assert tracer.counts["waterfill.sweep.points"] == 102


def test_verify_oracles_keeps_every_term(tmp_path):
    workload = workloads.WORKLOADS["verify_oracles"](1, str(tmp_path))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.run(workload.cycle(0)[0])
    assert tracer.counts["timedomain.shorted_line_series_v.terms"] == 800_000
    assert tracer.counts["timedomain.lc_transfer_from_impulse.samples"] == 252_502
    assert tracer.counts["timedomain.open_line_series_vi.terms"] == 1_280
