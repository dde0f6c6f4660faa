"""In-memory span tracer for the traced benchmark run.

``installed(tracer)`` wraps the public functions of the rclink layers at every
name a caller binds (``rclink.waterfill.build_grid`` and the copy
``rclink.cli.build_grid`` alike), plus ``rclink.cli.main``, whose span is named
after the command it runs. Each call appends one span ``[name, start, end,
parent]`` to a list and bumps the counters of its layer; nothing is written
until the run ends. Self time is a span's duration minus its direct children.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("channels", "linkmodel", "waterfill", "timedomain", "config")
MODULES = ("rclink",) + tuple(f"rclink.{m}" for m in LAYERS + ("cli",))
CLI_COMMANDS = ("table1", "transfer", "ratio", "waterfill", "sweep", "verify")
CLOSED_FORMS = ("timedomain.open_line_closed_vi", "timedomain.shorted_line_closed_v",
                "timedomain.lc_transfer_closed")
CONFIG_LOADS = ("config.default_config", "config.load_config")
TIMED = (
    "waterfill.build_grid", "waterfill.solve_for_power", "waterfill.sweep",
    "linkmodel.alpha", "linkmodel.beta", "linkmodel.ratio_alpha_beta",
    "linkmodel.transfer_magnitude", "linkmodel.capacity_upper_bound",
    "linkmodel.capacity_lower_bound", "channels.eval_reactances", "channels.poles_in_interval",
    "timedomain.shorted_line_series_v", "timedomain.open_line_series_vi",
    "timedomain.lc_transfer_from_impulse",
)
SELF_TIMED = ("waterfill.build_grid", "waterfill.solve_for_power", "waterfill.sweep",
              "linkmodel.capacity_lower_bound")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _residual(args, kwargs, sol):
    p_t = _arg(args, kwargs, 3, "p_t")
    return {"waterfill.solve_for_power.residual_max": abs(sol.power - p_t) / p_t}


def _impulse_samples(args, kwargs, result):
    horizon, dt = _arg(args, kwargs, 2, "horizon"), _arg(args, kwargs, 3, "dt")
    return {"timedomain.lc_transfer_from_impulse.samples": math.ceil(horizon / dt) + 1}


# span name -> counter(args, kwargs, result) -> {counter name: amount}, run
# after a call returns; amounts add up, except that a "_max" counter keeps
# the largest amount
COUNTERS = {
    "waterfill.build_grid": lambda a, k, grid: {
        "waterfill.build_grid.nodes": len(grid.nodes),
        "waterfill.build_grid.poles": len(grid.pole_nodes)},
    "waterfill.solve_for_power": _residual,
    "waterfill.sweep": lambda a, k, res: {"waterfill.sweep.points": len(res.points) + 1},
    "channels.eval_reactances": lambda a, k, r: {
        "channels.eval_reactances.points": np.size(_arg(a, k, 1, "omega"))},
    "channels.poles_in_interval": lambda a, k, poles: {
        "channels.poles_in_interval.poles": len(poles)},
    "timedomain.shorted_line_series_v": lambda a, k, r: {
        "timedomain.shorted_line_series_v.terms": _arg(a, k, 3, "terms")},
    "timedomain.open_line_series_vi": lambda a, k, r: {
        "timedomain.open_line_series_vi.terms": _arg(a, k, 3, "terms")},
    "timedomain.lc_transfer_from_impulse": _impulse_samples,
}
# span name -> counter bumped when the call raises ValueError (a refusal)
REFUSALS = {"linkmodel.capacity_lower_bound": "linkmodel.capacity_lower_bound.rejected"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, fn, name=None, name_of=None, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        refusal = REFUSALS.get(name)

        def traced(*args, **kwargs):
            span = [name or name_of(args), 0.0, 0.0, stack[-1] if stack else -1]
            counts[span[0] + ".calls"] += 1
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if refusal:
                    counts[refusal] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                for key, amount in count(args, kwargs, result).items():
                    if key.endswith("_max"):
                        counts[key] = max(counts[key], amount)
                    else:
                        counts[key] += amount
            return result

        return traced

    def totals(self):
        """Inclusive and self seconds per span name."""
        total, own = defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            own[name] += d
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return total, own

    def per_job(self, jobs: int) -> dict:
        """Per-layer metrics, each a total over the traced jobs divided by ``jobs``."""
        total, own = self.totals()
        c = self.counts
        m = {}
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
            m[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
        m["cli.nonzero_exit"] = c["cli.nonzero_exit"]
        for name in TIMED:
            m[f"{name}.s"] = total[name]
        for name in SELF_TIMED:
            m[f"{name}.self_s"] = own[name]
        m["timedomain.closed_forms.s"] = sum(total[n] for n in CLOSED_FORMS)
        m["config.load.s"] = sum(total[n] for n in CONFIG_LOADS)
        for key in ("waterfill.build_grid.calls", "waterfill.build_grid.nodes",
                    "waterfill.build_grid.poles", "waterfill.solve_for_power.calls",
                    "waterfill.sweep.points", "linkmodel.capacity_lower_bound.calls",
                    "linkmodel.capacity_lower_bound.rejected", "channels.eval_reactances.calls",
                    "channels.eval_reactances.points", "channels.poles_in_interval.poles",
                    "timedomain.shorted_line_series_v.terms", "timedomain.open_line_series_vi.terms",
                    "timedomain.lc_transfer_from_impulse.samples"):
            m[key] = c[key]
        m = {k: v / jobs for k, v in m.items()}
        # a worst case, not a per-job total
        m["waterfill.solve_for_power.residual_max"] = c["waterfill.solve_for_power.residual_max"]
        return m


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of the traced rclink functions; restore them on exit."""
    modules = [importlib.import_module(m) for m in MODULES]
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rclink.{layer}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(obj, name=name, count=COUNTERS.get(name))
    cli = importlib.import_module("rclink.cli")
    wrappers[cli.main] = tracer.wrap(
        cli.main, name_of=lambda args: f"cli.{args[0][0]}",
        count=lambda a, k, status: {"cli.nonzero_exit": int(status != 0)})
    replaced = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                replaced.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    try:
        yield
    finally:
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)
