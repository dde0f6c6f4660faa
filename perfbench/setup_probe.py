"""Set-up probe: import rclink and load one workload's inputs, then exit.

``run.py`` starts this in a fresh interpreter several times and reports the
median wall time as ``setup_s``:

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports rclink)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir).cycle(0)
