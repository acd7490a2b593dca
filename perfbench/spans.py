"""Per-layer spans around fdbf's public entry points, for the traced run.

Each entry point is wrapped wherever the program looks it up: in the module
that defines it and in every fdbf module that bound it with `from ... import`
(for example `fdbf.cli.run_sweep` and `fdbf.experiment.draw_realization`).
Patching the defining module alone would miss those calls. A method such as
`numerics.RngState.generator` is wrapped on its class.

An entry point that no longer exists, or is not callable (the numba twins on
a machine without numba), is skipped and reports zero calls, so the traced
run keeps working when a refactor deletes or bypasses a layer.

Spans are aggregated in memory as they close: per entry point the number of
calls, the total time, and the self time (total minus the time of the spans
opened inside it).
"""

import contextlib
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

ENTRY_POINTS = (
    "cli.main",
    "experiment.run_sweep",
    "experiment.draw_batch",
    "channel.draw_realization",
    "numerics.RngState.generator",
    "numerics.sample_complex_gaussian",
    "beamform.optimal",
    "oracle.grid_search",
    "oracle.random_feasible_search",
    "kernels.solve_batch",
    "kernels.solve_one",
    "kernels.grid_scan",
    "kernels.sample_scan",
    "kernels.solve_batch_numba",
    "kernels.solve_one_numba",
    "kernels.grid_scan_numba",
    "kernels.sample_scan_numba",
)


def _nbytes(*arrays):
    return sum(getattr(x, "nbytes", 0) for x in arrays)


# Work done by one kernel call, as (items, bytes of arguments, bytes of
# results), read from the positional arguments of the current signatures.
# Bytes are computed from array sizes, not measured.
def _solve_batch_work(args, result):
    return len(args[0]), _nbytes(args[0], args[1]), _nbytes(*result)


def _grid_scan_work(args, result):
    return int(args[4]), 0, 0


def _sample_scan_work(args, result):
    return len(args[3]), 0, 0


WORK = {
    "kernels.solve_batch": _solve_batch_work,
    "kernels.grid_scan": _grid_scan_work,
    "kernels.sample_scan": _sample_scan_work,
}


@dataclass
class Stat:
    """Aggregate of every closed span of one entry point."""

    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    items: int = 0
    arg_bytes: int = 0
    result_bytes: int = 0
    max_arg_bytes: int = 0


class Tracer:
    """Span aggregates keyed by entry-point name."""

    def __init__(self):
        self.stats = {name: Stat() for name in ENTRY_POINTS}
        self._local = threading.local()

    def wrap(self, name, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                child_ns = stack.pop()
                if stack:
                    stack[-1] += dt
                stat = tracer.stats[name]
                stat.calls += 1
                stat.ns += dt
                stat.self_ns += dt - child_ns
            if work is not None:
                try:
                    items, arg_bytes, result_bytes = work(args, result)
                except (IndexError, TypeError, ValueError):
                    pass  # a changed signature loses the work count, not the run
                else:
                    stat.items += items
                    stat.arg_bytes += arg_bytes
                    stat.result_bytes += result_bytes
                    stat.max_arg_bytes = max(stat.max_arg_bytes, arg_bytes)
            return result

        return wrapper


def _resolve(name):
    """(owner, attribute, object) for `module.attr[.attr]`, or None if gone."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"fdbf.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = getattr(owner, path[-1], None)
    if not callable(obj):
        return None
    return owner, path[-1], obj


def _bindings(owner, attr, obj):
    """Every (namespace, attribute) through which the program reaches obj."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "fdbf"
                                  or module_name.startswith("fdbf.")):
            continue
        for key, value in list(vars(module).items()):
            if value is obj:
                found.append((module, key))
    return found


@contextlib.contextmanager
def installed(tracer):
    """Wrap every entry point that exists for the duration of the block.

    The original attributes are restored on exit, also when the block raises.
    """
    saved = []
    try:
        wrapped = set()
        for name in ENTRY_POINTS:
            target = _resolve(name)
            if target is None or id(target[2]) in wrapped:
                continue
            owner, attr, obj = target
            wrapped.add(id(obj))
            wrapper = tracer.wrap(name, obj)
            for namespace, key in _bindings(owner, attr, obj):
                saved.append((namespace, key, getattr(namespace, key)))
                setattr(namespace, key, wrapper)
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)
