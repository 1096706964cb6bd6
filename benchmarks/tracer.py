"""Spans and counts at the public boundaries of ``magnon_sense``.

The tracer wraps every public function of the package's layers from
outside.  A function imported by name (``from .simulation import
simulate``) is looked up on the importing module, so each wrapper replaces
the original on every module of the package that holds it.  Spans are
(name, start, end, parent) rows kept in memory; worker threads of the sweep
pool attach their spans to the span the main thread is in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

LAYERS = ("model", "transfer", "spectra", "simulation", "verification", "svg", "cli")

#: span of a benchmark check run inside a traced call; excluded from layer times
CHECK_SPAN = "benchmark.check"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        self.hooks: dict = {}                # span name -> fn(tracer, args, kwargs, result)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, name: str) -> int:
        me = threading.get_ident()
        stack = self._stacks.setdefault(me, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if me != self._main and main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            hook = self.hooks.get(name)
            if hook is not None:
                check = self._open(CHECK_SPAN)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self._close(check)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer of ``magnon_sense``."""
        modules = [importlib.import_module("magnon_sense")]
        modules += [importlib.import_module(f"magnon_sense.{m}") for m in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)

def _union(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds.

    Self time is a span's duration less the part its child spans cover;
    children in pool threads may overlap, so the union is taken.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        kids = [(spans[k][1], spans[k][2]) for k in children.get(i, ())]
        row = out.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - _union(kids, start, end)
    return out


def verification_phases(spans: list[list]) -> dict[str, float]:
    """Time of each ``verify`` check family, from the public calls it makes.

    The run's direct children are cut into routes, lyapunov, psd and gain at
    the ``derived_parameters`` call that precedes each family's first
    characteristic call: ``simulate``, ``estimate_psd``, ``measure_gain``.
    Benchmark checks inside the interval are not counted.
    """
    totals = {"routes": 0.0, "lyapunov": 0.0, "psd": 0.0, "gain": 0.0}
    for i, (name, start, end, _) in enumerate(spans):
        if name != "verification.run_verification":
            continue
        kids = [k for k, s in enumerate(spans) if s[3] == i]
        names = [spans[k][0] for k in kids]
        cuts = [start]
        for anchor in ("simulation.simulate", "simulation.estimate_psd",
                       "simulation.measure_gain"):
            first = names.index(anchor) if anchor in names else None
            if first is None:
                cuts.append(cuts[-1])
                continue
            j = first
            while j > 0 and names[j] != "model.derived_parameters":
                j -= 1
            if names[j] != "model.derived_parameters":
                j = first
            cuts.append(max(cuts[-1], spans[kids[j]][1]))
        cuts.append(end)
        checks = [(spans[k][1], spans[k][2]) for k in kids if spans[k][0] == CHECK_SPAN]
        for phase, lo, hi in zip(totals, cuts, cuts[1:]):
            totals[phase] += (hi - lo) - _union(checks, lo, hi)
    return totals


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured here."""
    def bare():
        return None
    tracer = Tracer()
    traced = tracer.wrap("calibration", bare)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
