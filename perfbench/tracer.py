"""Layer attribution from outside the program.

The traced round wraps public callables of :mod:`repro` — class methods
and module-level functions — in its own process.  Each wrapper opens a
span on entry and closes it on return; a layer's self time is its
span's duration minus the time of the spans opened inside it.  Nothing
under ``src/`` is edited: a function is replaced in every loaded
``repro`` module that binds it, so call sites that imported it by name
are covered too.

The hot mechanism hooks run hundreds of thousands of times per round,
so they are only aggregated (count, inclusive and self time); every
other span is also kept in memory with its parent and root ids and
written out when the round ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional, Sequence

#: Span names kept as aggregates only (one entry per call would be
#: millions of records on ``fig5-sweep``).
HOT = frozenset({"mechanism.tick", "mechanism.probe", "mechanism.observe",
                 "mechanism.slow_path"})

#: Mechanism hooks: the seam every registered mechanism implements, and
#: the engine methods the processor model calls without that seam.
MECHANISM_HOOKS = (("probe", "mechanism.probe"), ("tick", "mechanism.tick"),
                   ("observe_dispatch", "mechanism.observe"),
                   ("on_slow_path", "mechanism.slow_path"))
ENGINE_HOOKS = (("probe_and_promote", "mechanism.probe"),
                ("tick", "mechanism.tick"),
                ("observe_dispatch", "mechanism.observe"))


class Tracer:
    """In-memory span store with per-name aggregates and counters."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []   # [name, child_seconds, id, root]
        self.totals: dict[str, list[float]] = {}  # name -> [n, incl, self]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._next_id = 1

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def total(self, name: str) -> list[float]:
        return self.totals.get(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[[Any, tuple], None]] = None
             ) -> Callable:
        """``fn`` under a span called ``name``.

        A call made while a span of the same name is innermost (an
        adapter delegating to the engine it wraps) runs unwrapped, so
        it is counted and timed once.
        """
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        keep = name not in HOT

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0, 0]
            if keep:
                frame[2] = self._next_id
                self._next_id += 1
                frame[3] = stack[0][3] if stack else frame[2]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep:
                    parent = next((f[2] for f in reversed(stack) if f[2]), 0)
                    self.spans.append((frame[2], parent, frame[3], name,
                                       start, end))
            if on_return is not None:
                on_return(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """Write the kept spans and the aggregates as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [{"id": i, "parent": p, "root": r, "name": n,
                       "start": s, "end": e}
                      for i, p, r, n, s, e in self.spans],
            "totals": {name: {"calls": int(n), "seconds": incl,
                              "self_seconds": own}
                       for name, (n, incl, own) in self.totals.items()},
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload))


def _patch_method(cls: type, attr: str, wrapper_for: Callable) -> None:
    original = getattr(cls, attr)  # AttributeError names a renamed hook
    setattr(cls, attr, wrapper_for(original))


def _patch_function(module: str, attr: str, wrapper: Callable) -> None:
    """Replace ``module.attr`` in every loaded ``repro`` module binding it."""
    original = getattr(importlib.import_module(module), attr)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper(original))


def _mechanism_classes() -> list[type]:
    """Every registered frontend mechanism class."""
    from repro.api import FrontendMechanism, mechanism_names

    registered = set(mechanism_names())
    found, todo = [], list(FrontendMechanism.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if getattr(cls, "name", "") in registered and cls not in found:
            found.append(cls)
    missing = registered - {cls.name for cls in found}
    if missing:
        raise RuntimeError(f"mechanism classes not found: {sorted(missing)}")
    return found


def install(tracer: Tracer, oracles: Sequence[str]) -> None:
    """Wrap the public layer boundaries of :mod:`repro` with ``tracer``.

    ``oracles`` names the oracle catalogue entries to time; a missing
    name or a renamed method raises instead of reporting zero.
    """
    from repro.api import (
        ExperimentRunner,
        FunctionalEngine,
        PreconstructionEngine,
        ResultCache,
    )
    from repro.check.oracles import ORACLES
    from repro.processor import ProcessorSimulation
    from repro.sim import FrontendSimulation

    add = tracer.add

    def on_sim(result, args) -> None:
        stats = result.stats
        add("sim.trace_hits", stats.trace_hits)
        add("sim.trace_lookups", stats.trace_hits + stats.trace_misses)
        add("sim.instructions", stats.instructions)
        add("sim.ntp_correct", stats.ntp_correct)
        add("sim.ntp_total", stats.ntp_correct + stats.ntp_wrong
            + stats.ntp_none)
        add("sim.icache_misses", args[0].icache.total_misses)
        engine = result.preconstruction
        if engine is not None:
            add("mechanism.decode_steps", engine.stats.decode_steps)
            add("mechanism.traces_constructed",
                engine.stats.traces_constructed)
            add("mechanism.buffer_hits", engine.stats.buffer_hits)

    def on_processor(result, args) -> None:
        on_sim(result, args)
        add("processor.ipc_sum", result.stats.ipc)

    def on_runner(results, args) -> None:
        add("runner.point_seconds",
            sum(r.wall_seconds for r in results if not r.cached))

    method = tracer.wrap
    _patch_method(ExperimentRunner, "run",
                  lambda fn: method("runner.run", fn, on_runner))
    _patch_method(ResultCache, "put",
                  lambda fn: method("runner.cache_put", fn))
    _patch_method(FunctionalEngine, "run", lambda fn: method(
        "engine.stream", fn,
        lambda out, args: add("engine.instructions", len(out))))
    _patch_method(FrontendSimulation, "run",
                  lambda fn: method("sim.frontend", fn, on_sim))
    _patch_method(ProcessorSimulation, "run",
                  lambda fn: method("processor.run", fn, on_processor))
    for cls in _mechanism_classes():
        for attr, name in MECHANISM_HOOKS:
            _patch_method(cls, attr, lambda fn, n=name: method(n, fn))
    for attr, name in ENGINE_HOOKS:
        _patch_method(PreconstructionEngine, attr,
                      lambda fn, n=name: method(n, fn))

    _patch_function("repro.workloads.generator", "generate",
                    lambda fn: method("workloads.generate", fn))
    _patch_function("repro.static.verifier", "verify_image",
                    lambda fn: method("static.verify", fn))
    _patch_function("repro.static.predictor", "predict_coverage",
                    lambda fn: method("static.predict", fn))
    _patch_function("repro.trace", "traces_of_stream", lambda fn: method(
        "trace.partition", fn,
        lambda out, args: add("trace.traces", len(out))))
    _patch_function("repro.check.harness", "check_profile", lambda fn: method(
        "check.case", fn,
        lambda report, args: add("check.violations",
                                 len(report.violations))))
    for oracle in oracles:
        ORACLES[oracle] = method(f"check.{oracle}", ORACLES[oracle])
