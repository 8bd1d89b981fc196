"""Spans around the public functions of every ``qsde`` module.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each public function and each public method of the layer modules with a
wrapper that records calls, total time and self time under the span name
``<layer>.<function>``.  Self time is total time minus the time of child
spans.  Modules that imported a function by name (``from .statistics import
spectrum_scan``) hold their own reference to it, so the wrapper is bound
into every ``qsde`` module namespace that refers to the original; otherwise
those calls would go untraced without any error.

A few counters are derived from call arguments at the same boundaries:
``master.rk4_steps``, ``trajectories.traj_steps``,
``trajectories.noise_bytes_computed`` (the size of one chunk's noise array,
computed from chunk x steps x channels x 8 B, not measured) and
``cli.emit.bytes``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("config", "model", "trajectories", "master", "statistics", "mollow", "cli", "linalg")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[float]] = {}   # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []             # child time of each open span
        self._originals: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, child: float):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += elapsed
        span[2] += elapsed - child

    def wrap(self, name: str, fn, probe=None):
        stack = self._stack
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(name, elapsed, child)
            if probe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound.arguments, result)
            return result

        return span

    def count(self, name: str, n: int):
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def peak(self, name: str, n: int):
        self.counters[name] = max(self.counters.get(name, 0), int(n))

    def install(self):
        """Wrap every public function and method of the layer modules."""
        modules = {layer: importlib.import_module(f"qsde.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            classes = [c for a, c in vars(module).items()
                       if not a.startswith("_") and inspect.isclass(c) and _defined_in(c, module)]
            methods = [(cls, attr, fn) for cls in classes for attr, fn in vars(cls).items()
                       if not attr.startswith("_") and inspect.isfunction(fn)]
            uses = Counter(attr for _, attr, _ in methods)
            for cls, attr, fn in methods:
                # Methods of one name on two classes get the class in their span name.
                name = f"{layer}.{attr}" if uses[attr] == 1 else f"{layer}.{cls.__name__}.{attr}"
                self._set(cls, attr, self.wrap(name, fn))
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and _defined_in(fn, module)
                        and (not attr.startswith("_") or name in PROBES)):
                    wrappers[fn] = self.wrap(name, fn, PROBES.get(name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])

    def _set(self, owner, attr: str, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _defined_in(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _rk4_steps(tracer, args, result):
    tracer.count("master.rk4_steps", args["nsteps"])


def _ensemble(tracer, args, result):
    ntraj, nsteps = args["ntraj"], args["nsteps"]
    tracer.count("trajectories.traj_steps", ntraj * nsteps)
    chunk = min(args["chunk_size"], ntraj)
    tracer.peak("trajectories.noise_bytes_computed",
                chunk * nsteps * args["coeffs"].nchannels * 8)


def _emit(tracer, args, result):
    tracer.count("cli.emit.bytes", sum(p.stat().st_size for p in result))


PROBES = {
    "master._rk4_march": _rk4_steps,
    "trajectories.run_linear_ensemble": _ensemble,
    "trajectories.run_nonlinear_ensemble": _ensemble,
    "cli.emit": _emit,
}
