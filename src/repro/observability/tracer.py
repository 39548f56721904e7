"""Structured tracing: typed event records with a zero-cost off switch.

A :class:`Tracer` collects :class:`TraceEvent` records — task lifecycle,
heartbeats, control intervals, pheromone updates, scheduler decisions,
metrics snapshots — as the simulation runs.  Every instrumented component
holds a tracer reference that defaults to :data:`NULL_TRACER`, whose
``enabled`` flag is ``False``; hot paths guard emission with::

    if tracer.enabled:
        tracer.emit(EventType.HEARTBEAT, now, machine_id=...)

so that with tracing off no event object is built, no argument is
evaluated, and nothing is appended anywhere — the instrumentation reduces
to one attribute check per site.

Event payloads are flat, JSON-serializable mappings; the schema of each
event type is documented in ``docs/observability.md``.  Scheduler decision
events carry the :mod:`repro.observability.audit` record fields and can be
parsed back with :meth:`Tracer.decisions`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, MutableSequence, Optional

from .audit import DecisionRecord

__all__ = ["EventType", "TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]


class EventType(str, enum.Enum):
    """The trace vocabulary (``str`` values are the JSONL ``type`` field)."""

    #: First record of every trace: run configuration (scheduler, seed, fleet).
    HEADER = "trace.header"
    #: Simulation run loop entered / drained (emitted by the Simulator).
    SIM_START = "sim.start"
    SIM_END = "sim.end"
    #: Job admitted by the JobTracker / all of a job's tasks completed.
    JOB_SUBMITTED = "job.submitted"
    JOB_COMPLETED = "job.completed"
    #: Task attempt launched into a slot / finished / killed.
    TASK_LAUNCHED = "task.launched"
    TASK_COMPLETED = "task.completed"
    TASK_KILLED = "task.killed"
    #: One TaskTracker heartbeat answered by the JobTracker.
    HEARTBEAT = "heartbeat"
    #: Periodic control-interval tick (the paper's 5-minute loop).
    CONTROL_INTERVAL = "control.interval"
    #: E-Ant pheromone table row after an Eq. 4-6 update (one per colony).
    PHEROMONE_UPDATE = "pheromone.update"
    #: E-Ant assignment audit record (Eqs. 3-8 decomposition per candidate).
    DECISION = "scheduler.decision"
    #: Policy-specific annotation from a baseline scheduler.
    SCHEDULER_EVENT = "scheduler.event"
    #: TaskTracker declared dead; its running work was requeued.
    TRACKER_EXPIRED = "tracker.expired"
    #: A FaultPlan event fired (crash, recover, join, decommission,
    #: slowdown, flaky_heartbeats — the ``kind`` field says which).
    FAULT_INJECTED = "fault.injected"
    #: A crashed TaskTracker re-registered with the JobTracker and
    #: resumed heartbeats.
    TRACKER_RECOVERED = "tracker.recovered"
    #: Periodic TelemetrySink sample: per-machine utilization/power/joules,
    #: the sample's fleet columns, and the MetricsRegistry snapshot.
    METRICS_SNAPSHOT = "metrics.snapshot"
    #: Sweep-runner progress: one scenario resolved (cache hit, fresh run,
    #: retry, or failure).  Emitted with wall-clock times, not sim time.
    SWEEP_TASK = "sweep.task"
    #: Sweep-runner roll-up after the whole grid resolved.
    SWEEP_SUMMARY = "sweep.summary"
    #: A sharded sweep announced its shard coordinates (grid digest,
    #: shard index/count, member spec count).
    SWEEP_SHARD = "sweep.shard"
    #: Resume reconciliation against an existing result spool (restored
    #: entries, damaged lines skipped for redo, foreign entries ignored).
    SWEEP_RESUME = "sweep.resume"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class TraceEvent:
    """One timestamped, typed trace record.

    Mutable only for construction speed (frozen dataclasses funnel every
    field through ``object.__setattr__``, which is measurable at trace
    volume); treat records as append-only facts.
    """

    time: float
    type: str
    data: Dict[str, Any]

    def to_line_dict(self) -> Dict[str, Any]:
        """Flatten into the JSONL wire form (``t`` and ``type`` first)."""
        out: Dict[str, Any] = {"t": self.time, "type": str(self.type)}
        out.update(self.data)
        return out

    @classmethod
    def from_line_dict(cls, line: Dict[str, Any]) -> "TraceEvent":
        data = {k: v for k, v in line.items() if k not in ("t", "type")}
        return cls(time=float(line["t"]), type=str(line["type"]), data=data)


class Tracer:
    """Collects trace events in memory (export via :mod:`.exporters`).

    The tracer is deliberately append-only and side-effect free: it never
    touches RNG streams or the simulation heap, so a traced run produces
    bit-identical results to an untraced one.

    Parameters
    ----------
    max_events:
        ``None`` (default) keeps every event, matching historical
        behaviour.  A positive bound turns the buffer into a ring: once
        full, each new event evicts the oldest and :attr:`dropped` counts
        the evictions — so full tracing on a large fleet degrades to a
        sliding window instead of exhausting RAM.
    """

    enabled = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        #: events evicted from the ring (always 0 in unbounded mode)
        self.dropped = 0
        self.events: "MutableSequence[TraceEvent]" = (
            [] if max_events is None else deque(maxlen=max_events)
        )

    # ---------------------------------------------------------------- emit
    def emit(self, type_: EventType, time: float, **data: Any) -> None:
        """Append one event (payload keys become JSONL fields)."""
        events = self.events
        if self.max_events is not None and len(events) == self.max_events:
            self.dropped += 1
        events.append(TraceEvent(time, type_, data))

    def emit_decision(self, record: DecisionRecord) -> None:
        """Append one scheduler-decision audit record."""
        events = self.events
        if self.max_events is not None and len(events) == self.max_events:
            self.dropped += 1
        events.append(TraceEvent(record.time, EventType.DECISION, record.to_data()))

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, type_: EventType) -> List[TraceEvent]:
        """All events of one type, in emission order."""
        return [e for e in self.events if e.type == type_]

    def decisions(self) -> List[DecisionRecord]:
        """The scheduler decision audit log, parsed back into records."""
        return [
            DecisionRecord.from_data(e.data, time=e.time)
            for e in self.of_type(EventType.DECISION)
        ]

    def header(self) -> Optional[TraceEvent]:
        """The run-configuration header event, if one was emitted."""
        for event in self.events:
            if event.type == EventType.HEADER:
                return event
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self.events)} events>"


class NullTracer:
    """The off switch: ``enabled`` is False and every emit is a no-op.

    Instrumented call sites check ``tracer.enabled`` before building any
    payload, so this class's methods exist only as a safety net for
    unguarded calls.
    """

    enabled = False

    def emit(self, type_: EventType, time: float, **data: Any) -> None:
        """Discard (no event is constructed by guarded call sites)."""

    def emit_decision(self, record: DecisionRecord) -> None:
        """Discard."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: Shared no-op tracer every component defaults to.
NULL_TRACER = NullTracer()
