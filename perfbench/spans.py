"""Layer spans for the traced benchmark run.

The benchmark times the program from the outside: :func:`install` replaces
public functions of each layer (``repro.simulation``, ``repro.hadoop``,
``repro.core``, ...) with wrappers that open a span around the original
call.  Nothing under ``src/`` knows about it, and an untraced run never
imports this module's wrappers, so untraced numbers carry no tracing cost.

A span's *self* time is its duration minus the time of the spans opened
inside it, so summing self time over every span name never counts a
nanosecond twice.  The interpreter's cyclic collector is a span too
(``py.gc``), opened and closed from ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Spans:
    """In-memory span recorder: per-name calls, total and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: Per-name sums of an item count the wrapper observed (for
        #: example tasks assigned by ``select``).
        self.items: Dict[str, int] = {}
        self.gen2_collections = 0
        # Open spans: [name, start, seconds covered by child spans].
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording
    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self, items: Optional[int] = None) -> None:
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if items is not None:
            self.add_items(name, items)
        if self._stack:
            self._stack[-1][2] += duration

    def add_items(self, name: str, items: int) -> None:
        self.items[name] = self.items.get(name, 0) + items

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self.enter("py.gc")
        else:
            if info.get("generation") == 2:
                self.gen2_collections += 1
            self.exit()

    # -------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        count_items: bool = False,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper (undone by :meth:`remove`).

        ``count_items`` adds ``len(result)`` to the span's item count.
        ``generator`` times each resumption of the generator the function
        returns, instead of the call that creates it.
        """
        original = getattr(owner, attr)
        if generator:
            wrapper = self._generator_wrapper(original, name)
        else:
            wrapper = self._call_wrapper(original, name, count_items)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_item(self, mapping: Dict[str, Any], key: str, name: str) -> None:
        """Like :meth:`wrap`, for a function held in a dict (a dispatch table)."""
        original = mapping[key]
        mapping[key] = self._call_wrapper(original, name, False)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def _call_wrapper(self, original, name, count_items):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            enter(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                exit_(len(result) if count_items and result is not None else None)

        return wrapper

    def _generator_wrapper(self, original, name):
        enter, exit_ = self.enter, self.exit

        def timed(inner):
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                enter(name)
                try:
                    target = inner.send(value) if error is None else inner.throw(error)
                except StopIteration as stop:
                    exit_()
                    return stop.value
                except BaseException:
                    exit_()
                    raise
                exit_()
                error = None
                try:
                    value = yield target
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # relayed into the inner generator
                    value, error = None, exc

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return timed(original(*args, **kwargs))

        return wrapper

    def track_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append(lambda: gc.callbacks.remove(self._on_gc))

    def remove(self) -> None:
        """Restore every wrapped function and detach the GC hook."""
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------------- output
    def to_json(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "items": dict(self.items),
            "gen2_collections": self.gen2_collections,
        }


def install(spans: Spans) -> None:
    """Wrap the public entry points of every layer the workloads load."""
    from repro.cluster.power import EnergyAccumulator
    from repro.core.scheduler import EAntScheduler
    from repro.core.service import LocalSchedulerCore
    from repro.hadoop.jobtracker import JobTracker
    from repro.hadoop.tasktracker import TaskTracker
    from repro.metrics.collector import MetricsCollector
    from repro.runner import cache, engine, record, spec, spool, sweep
    from repro.schedulers import FairScheduler, FifoScheduler
    from repro.simulation.engine import Simulator

    spans.track_gc()
    spans.wrap(Simulator, "run", "simulation.run")
    timed_run = Simulator.run

    def run(sim, *args, **kwargs):  # counts dispatched events as span items
        before = sim._dispatched
        try:
            return timed_run(sim, *args, **kwargs)
        finally:
            spans.add_items("simulation.run", sim._dispatched - before)

    Simulator.run = run
    spans._undo.append(lambda: setattr(Simulator, "run", timed_run))
    spans.wrap(JobTracker, "heartbeat", "hadoop.heartbeat")
    spans.wrap(JobTracker, "task_finished", "hadoop.task_finished")
    spans.wrap(TaskTracker, "launch", "hadoop.launch")
    spans.wrap(TaskTracker, "_run_map", "hadoop.task_run", generator=True)
    spans.wrap(TaskTracker, "_run_reduce", "hadoop.task_run", generator=True)
    spans.wrap(LocalSchedulerCore, "select", "core.select", count_items=True)
    for policy in (FifoScheduler, FairScheduler, EAntScheduler):
        spans.wrap(policy, "select_tasks", "core.select." + policy.name)
    spans.wrap(LocalSchedulerCore, "task_report", "core.task_report")
    spans.wrap(EAntScheduler, "on_control_interval", "core.control_interval")
    spans.wrap(EnergyAccumulator, "advance", "energy.advance")
    spans.wrap(MetricsCollector, "on_report", "metrics.on_report")
    spans.wrap(engine, "execute_spec", "runner.execute_spec")
    # Call sites bind these by name at import, so each module is wrapped.
    spans.wrap(record, "build_record", "runner.build_record")
    spans.wrap(sweep, "build_record", "runner.build_record")
    spans.wrap(record, "record_digest", "runner.record_digest")
    spans.wrap(spool, "record_digest", "runner.record_digest")
    spans.wrap(spec.ScenarioSpec, "spec_hash", "runner.spec_hash")
    spans.wrap(cache.ResultCache, "get", "runner.cache_get")
    spans.wrap(cache.ResultCache, "put", "runner.cache_put")
    spans.wrap(spool.ResultSpool, "append", "runner.spool_append")
    spans.wrap(spool.ResultSpool, "scan", "runner.spool_scan", generator=True)


def install_serve(spans: Spans) -> None:
    """Wrap the daemon's wire codec, message handlers and decision call."""
    from repro.core.service import LocalSchedulerCore
    from repro.serve import daemon
    from repro.serve.engine import ServeEngine

    install(spans)
    spans.wrap(daemon, "decode", "serve.decode")
    spans.wrap(daemon, "encode", "serve.encode")
    spans.wrap(LocalSchedulerCore, "heartbeat", "serve.decision")
    for mtype in list(ServeEngine._HANDLERS):
        spans.wrap_item(ServeEngine._HANDLERS, mtype, "serve.handle." + mtype)
