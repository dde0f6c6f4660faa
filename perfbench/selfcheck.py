"""Self-check of the output gate: a wrong reference must fail every job.

Run from the repository root:

    python3 perfbench/selfcheck.py

For each workload, one cycle of seed 1 runs through the benchmark's own
``measure`` loop against a deliberately wrong reference value: a Table 1
upper bound moved by 0.15 b/s/Hz, a power budget 1e-5 off (ten times the
tolerance), or a misnamed verify check. The self-check passes only if every
job lands in the failed count; exit status 1 means the gate let one through.
"""

import shutil
import sys
import tempfile

import run

run._import_rclink()
import workloads  # noqa: E402  (needs rclink on the path)

WRONG = {
    "reproduce_cli": ("table1", ((5e4, 0.426, 0.500, 17.75),) + workloads.TABLE1[1:]),
    "tline_scan": ("power_scale", 1 + 10 * workloads.POWER_REL_TOL),
    "verify_oracles": ("expected", workloads.VERIFY_CHECKS[:-1] + ("mutual reactance vs Maxwell",)),
}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    status = 0
    for name, (attr, wrong) in WRONG.items():
        workdir = tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=run.OUT)
        try:
            wl = workloads.WORKLOADS[name](1, workdir)
            setattr(wl, attr, wrong)
            phase, = run.measure(wl, 0)  # exactly one cycle
        finally:
            shutil.rmtree(workdir)
        attempted = len(phase.times)
        ok = phase.failed == attempted
        status |= not ok
        print(f"{'PASS' if ok else 'FAIL'}: {name} with wrong {attr}: "
              f"failed_frac {phase.failed / attempted:.3g} ({phase.failed}/{attempted})")
        print(f"  first reason: {phase.errors[0]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
