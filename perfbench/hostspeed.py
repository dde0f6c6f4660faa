"""Host speed probe: a fixed reference kernel timed next to every job.

The host's speed drifts by a third or more over seconds to minutes, with no
steal time reported, and that drift moved the medians of 30-second runs of
the same code by more than a quarter. The probe runs a fixed kernel that
does not touch rclink, and its time relative to the kernel's reference time
scales the measured wall times:

    normalised time = wall time * reference time / probe time

so a slow stretch of the host, which slows probe and job alike, cancels out,
while a change to rclink, which the probe does not run, moves the figure in
full. The reference time is a fixed constant, so a normalised time reads as
the wall time on a host where one pass of the kernel takes that long.

A slow stretch does not slow all code alike: interpreter-bound Python lost
more than numpy passes over arrays of a few megabytes, so there are two
kernels, each close to the work of the workloads that use it:

- ``interpreter``: a float loop with ``math`` calls, a generator of closure
  calls into ``cmath`` (the bounce series), float formatting and joining
  (CSV writing), building and running an argparse parser and a JSON round
  trip (the CLI), small-object and dict traffic, many small numpy calls and
  a few elementwise passes over a 100k-element array;
- ``arrays``: numpy over 150k-element arrays, as in the grids of
  ``build_grid`` and water-filling: nearest-node scans (``argmin`` of an
  absolute difference), concatenate-unique-diff, elementwise passes, and a
  sort with ``searchsorted`` and ``cumsum``.

Set-up time is a fresh interpreter's start and imports, which neither kernel
tracks: the probe read slower just after a child process than the child
itself ran. ``start_reading`` times a reference child instead, a fresh
interpreter that imports a fixed set of standard-library packages.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np

# about one pass of each kernel in a quiet stretch of the 2-vCPU host of METHOD.md
REFERENCE_S = {"interpreter": 0.009, "arrays": 0.018}
# the reference child of start_reading, timed likewise
START_REFERENCE_S = 0.12
START_IMPORTS = ("import argparse, asyncio, decimal, email.mime.multipart, http.client, json, "
                 "unittest, xml.etree.ElementTree")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def norm(self):
        return (self.x * self.x + self.y * self.y) ** 0.5


class Probe:
    def __init__(self, kind: str = "interpreter"):
        self._kernel = {"interpreter": self._interpreter, "arrays": self._arrays}[kind]
        self._reference_s = REFERENCE_S[kind]
        self._grid = np.linspace(0.0, 1.0, 100_000)
        self._small = np.linspace(0.0, 1.0, 50)
        self._row = np.linspace(1e-3, 1e3, 1_000).tolist()
        self._doc = {f"k{i}": [j * 1.1 for j in range(20)] for i in range(60)}
        self._nodes = np.linspace(0.0, 1.0, 150_000)
        self._draws = np.random.default_rng(0).uniform(size=150_000)

    def _interpreter(self) -> float:
        s = 0.0
        for k in range(1, 6_000):
            s += math.sin(k * 1e-3) / k

        omega = 1.3 - 0.01j

        def fwd(a):
            return cmath.exp(-1j * omega * a / 3.0)

        s += abs(sum(fwd(2.0 * m) for m in range(3_000)))
        s += len(",".join(f"{x:.9g}" for x in self._row + self._row))
        parser = argparse.ArgumentParser(prog="probe")
        commands = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d", "e", "f"):
            cmd = commands.add_parser(name)
            cmd.add_argument("--config")
            cmd.add_argument("--out")
            cmd.add_argument("--power", type=float, default=1.0)
            cmd.add_argument("--points", type=int, default=5)
        s += parser.parse_args(["c", "--out", "x.csv", "--power", "2.5"]).power
        s += len(json.loads(json.dumps(self._doc, indent=2)))
        buckets = {}
        for i in range(3_000):
            buckets[i % 97] = buckets.get(i % 97, 0.0) + _Point(i, i + 1.0).norm()
        s += buckets[0]
        xs = self._small
        for _ in range(300):
            s += float(np.interp(0.5, xs, xs)) + float(np.sum(xs[:10]))
        a = self._grid
        for _ in range(6):
            a = np.sqrt(a * a + 1.0) - 1.0
        return s + float(a[-1])

    def _arrays(self) -> float:
        x = self._nodes
        s = 0.0
        for j in range(20):
            s += int(np.argmin(np.abs(x - j / 20)))
        merged = np.unique(np.concatenate([x, x[::3] + 1e-7]))
        s += float(np.diff(merged)[-1])
        a = x
        for _ in range(8):
            a = np.sqrt(a * a + 1.0) - 1.0
        ordered = np.sort(self._draws)
        s += int(np.searchsorted(ordered, x)[-1]) + float(np.cumsum(ordered)[-1])
        return s + float(a[-1])

    def sample(self, passes: int) -> float:
        """Wall time of ``passes`` passes of the kernel, in units of its reference time."""
        t0 = time.perf_counter()
        for _ in range(passes):
            self._kernel()
        return (time.perf_counter() - t0) / (passes * self._reference_s)


def start_reading() -> float:
    """Wall time of the reference child, in units of START_REFERENCE_S.

    ``-B`` keeps the child from writing bytecode outside the checkout.
    """
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-B", "-c", START_IMPORTS], check=True)
    return (time.perf_counter() - t0) / START_REFERENCE_S
