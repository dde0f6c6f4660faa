"""The benchmark's workloads still run on the library and pass their own checks.

perfbench/ drives rclink through public names (``waterfill.build_grid``,
``sweep(...).points``, ``cli.main``) and wraps them in spans when traced.  One
traced job per workload, cycle 0 of seed 1, catches a library change that
would make every benchmark job fail.
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
