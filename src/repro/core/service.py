"""The transport-agnostic scheduler service core.

The paper's JobTracker is, at heart, a request/response service: each
TaskTracker heartbeat carries a slot snapshot and the reply carries task
assignments (Eqs. 3-8 run per heartbeat; the pheromone/fairness state
re-optimizes per control interval).  This module extracts that decision
core behind a narrow, plain-data surface so the same policy object can be
driven by two very different hosts without drifting apart:

* the discrete-event simulation (:class:`~repro.hadoop.jobtracker.JobTracker`
  delegates every decision here, proven bit-identical on the golden
  digest corpus), and
* the :mod:`repro.serve` asyncio daemon, which feeds it heartbeats parsed
  off newline-delimited JSON sockets.

:class:`LocalSchedulerCore` is that core, wrapping a bound
:class:`~repro.schedulers.base.Scheduler`.  The request/response types
hold nothing but plain data — no event heap, no ``Simulator``, no tracker
objects — and every type round-trips through ``to_wire``/``from_wire``
JSON-safe dicts.  The three built per wire heartbeat
(:class:`HeartbeatRequest`, :class:`TaskDirective`,
:class:`AssignmentResponse`) are ``NamedTuple`` classes, like
``TrackerStatus``: immutable and hashable, without the per-field
``object.__setattr__`` a frozen dataclass pays on construction.

Import discipline
-----------------
``repro.hadoop.jobtracker`` imports this module, and ``repro.core``'s
package init imports :mod:`repro.core.scheduler`, which imports
``repro.hadoop`` — so this module must not import ``repro.hadoop`` (or
anything that does) at module scope, or either import order would hit a
half-initialized module.  Hadoop types appear here only as annotations;
the one runtime import from a sibling layer
(:class:`~repro.energy.model.UtilizationSample`) is made lazily inside
:func:`report_fields_from_wire`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..observability.metrics import Counter, MetricsRegistry
from ..observability.telemetry import SAMPLE_STRIDE

if TYPE_CHECKING:  # pragma: no cover
    from ..hadoop.job import Job, Task, TaskReport
    from ..hadoop.tasktracker import TrackerStatus
    from ..schedulers.base import Scheduler

__all__ = [
    "WireError",
    "TrackerInfo",
    "HeartbeatRequest",
    "TaskDirective",
    "AssignmentResponse",
    "LocalSchedulerCore",
    "task_report_to_wire",
    "report_fields_from_wire",
    "wire_float",
]

#: Tap callback receiving one wire-shaped dict per core interaction
#: (``register`` / ``submit`` / ``heartbeat`` / ``report`` / ``tick``) —
#: the session-recording hook behind the DES-vs-daemon parity tests.
CoreTap = Callable[[Dict[str, Any]], None]


class WireError(ValueError):
    """A wire message failed validation (missing field, wrong type/range)."""


_FLOAT_MAX = sys.float_info.max


def wire_float(key: str, value: Any) -> float:
    """Validate one wire number: an int or a finite float, never a bool.

    ``json.loads`` accepts ``NaN`` and ``Infinity``; an infinite clock
    would stall ``advance_time`` forever, so every wire float passes here.
    The range test also rejects integers beyond float range.
    """
    if type(value) is float and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value  # fast path: the plain JSON float every heartbeat carries
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireError(f"field {key!r} must be float, got {type(value).__name__}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise WireError(f"field {key!r} must be finite, got {value!r}")
    return float(value)


def _require(mapping: Dict[str, Any], key: str, kind: type) -> Any:
    try:
        value = mapping[key]
    except KeyError:
        raise WireError(f"missing field {key!r}") from None
    if kind is float:
        return wire_float(key, value)
    # bool is an int subclass; a JSON ``true`` is never a valid count.
    if kind is int and isinstance(value, bool):
        raise WireError(f"field {key!r} must be {kind.__name__}, got bool")
    if not isinstance(value, kind):
        raise WireError(
            f"field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _non_negative(key: str, value: Any) -> Any:
    if value < 0:
        raise WireError(f"field {key!r} must be non-negative, got {value!r}")
    return value


def _require_count(mapping: Dict[str, Any], key: str) -> int:
    try:
        value = mapping[key]
    except KeyError:
        value = None
    if type(value) is int and value >= 0:
        return value  # fast path: the plain JSON count every heartbeat carries
    # Everything else takes the full check, which names the fault.
    return _non_negative(key, _require(mapping, key, int))


@dataclass(frozen=True)
class TrackerInfo:
    """Static registration record of one TaskTracker.

    The ``model`` string keys the per-model assignment/completion
    counters (the heterogeneity axis of the paper's Tables III-IV);
    ``hostname`` only decorates error messages.
    """

    machine_id: int
    hostname: str
    model: str
    map_slots: int
    reduce_slots: int

    def to_wire(self) -> Dict[str, Any]:
        return {
            "machine_id": self.machine_id,
            "hostname": self.hostname,
            "model": self.model,
            "map_slots": self.map_slots,
            "reduce_slots": self.reduce_slots,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "TrackerInfo":
        return cls(
            machine_id=_require_count(data, "machine_id"),
            hostname=_require(data, "hostname", str),
            model=_require(data, "model", str),
            map_slots=_require_count(data, "map_slots"),
            reduce_slots=_require_count(data, "reduce_slots"),
        )


class HeartbeatRequest(NamedTuple):
    """One TaskTracker heartbeat: a slot snapshot at a point in time.

    Carries every ``TrackerStatus`` field under the same name, so the core
    hands it to the policy as the status itself.
    """

    machine_id: int
    now: float
    free_map_slots: int
    free_reduce_slots: int
    running_maps: int
    running_reduces: int

    def to_wire(self) -> Dict[str, Any]:
        return {
            "machine_id": self.machine_id,
            "now": self.now,
            "free_map_slots": self.free_map_slots,
            "free_reduce_slots": self.free_reduce_slots,
            "running_maps": self.running_maps,
            "running_reduces": self.running_reduces,
        }

    @classmethod
    def from_wire(
        cls, data: Dict[str, Any], now: Optional[float] = None
    ) -> "HeartbeatRequest":
        """Validate a wire heartbeat; a host-stamped ``now`` replaces its own."""
        return cls(
            _require_count(data, "machine_id"),
            _require(data, "now", float) if now is None else now,
            _require_count(data, "free_map_slots"),
            _require_count(data, "free_reduce_slots"),
            _require_count(data, "running_maps"),
            _require_count(data, "running_reduces"),
        )


class TaskDirective(NamedTuple):
    """One task assignment in a heartbeat response.

    Carries everything a remote TaskTracker needs to launch the work:
    the stable task id, its job, the kind (``"map"`` / ``"reduce"``),
    and the input volume in MB.
    """

    task_id: str
    job_id: int
    kind: str
    input_mb: float

    def to_wire(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "job_id": self.job_id,
            "kind": self.kind,
            "input_mb": self.input_mb,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "TaskDirective":
        kind = _require(data, "kind", str)
        if kind not in ("map", "reduce"):
            raise WireError(f"field 'kind' must be 'map' or 'reduce', got {kind!r}")
        return cls(
            task_id=_require(data, "task_id", str),
            job_id=_require_count(data, "job_id"),
            kind=kind,
            input_mb=_require(data, "input_mb", float),
        )


class AssignmentResponse(NamedTuple):
    """The reply to one heartbeat: zero or more task directives."""

    machine_id: int
    now: float
    directives: Tuple[TaskDirective, ...] = ()

    def to_wire(self) -> Dict[str, Any]:
        return {
            "machine_id": self.machine_id,
            "now": self.now,
            "directives": [d.to_wire() for d in self.directives],
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "AssignmentResponse":
        raw = _require(data, "directives", list)
        return cls(
            machine_id=_require_count(data, "machine_id"),
            now=_require(data, "now", float),
            directives=tuple(TaskDirective.from_wire(d) for d in raw),
        )


def _directive(task: "Task") -> TaskDirective:
    """The directive that launches ``task`` on the tracker it was assigned to."""
    return TaskDirective(task.task_id, task.job.job_id, task.kind.value, task.input_mb)


def task_report_to_wire(report: "TaskReport") -> Dict[str, Any]:
    """Flatten a :class:`~repro.hadoop.job.TaskReport` to a JSON-safe dict.

    Only the per-attempt outcome travels; job-identity fields
    (name/pool/signature) are recovered from the admitted job on the
    receiving side, so the wire record cannot contradict the job it
    reports against.
    """
    return {
        "task_id": report.task_id,
        "attempt_id": report.attempt_id,
        "kind": report.kind.value,
        "machine_id": report.machine_id,
        "start_time": report.start_time,
        "finish_time": report.finish_time,
        "avg_utilization": report.avg_utilization,
        "local": report.local,
        "samples": [[s.utilization, s.duration] for s in report.samples],
        "phases": dict(report.phases),
    }


def report_fields_from_wire(data: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a wire task report into plain attempt-outcome fields.

    Returns the fields a host needs to finish the matching attempt
    (``samples`` already as :class:`~repro.energy.model.UtilizationSample`).
    Utilizations and sample durations must be non-negative: a negative
    sample would flatten the E-Ant colonies at the next control interval.
    """
    from ..energy.model import UtilizationSample

    raw_samples = _require(data, "samples", list)
    samples = []
    for entry in raw_samples:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise WireError("each sample must be a [utilization, duration] pair")
        samples.append(UtilizationSample(
            _non_negative("samples", wire_float("samples", entry[0])),
            _non_negative("samples", wire_float("samples", entry[1])),
        ))
    phases = _require(data, "phases", dict)
    local = _require(data, "local", bool)
    return {
        "task_id": _require(data, "task_id", str),
        "attempt_id": _require(data, "attempt_id", str),
        "machine_id": _require_count(data, "machine_id"),
        "start_time": _require(data, "start_time", float),
        "finish_time": _require(data, "finish_time", float),
        "avg_utilization": _non_negative(
            "avg_utilization", _require(data, "avg_utilization", float)
        ),
        "local": local,
        "samples": samples,
        "phases": {str(k): float(v) for k, v in phases.items()},
    }


class LocalSchedulerCore:
    """The transport-agnostic scheduler core, wrapping a bound scheduler.

    Owns exactly the state that is *about deciding*: the per-model
    assignment/completion counters, the stride-sampled ``select_tasks``
    instrumentation, the control-interval deadline accumulator, and the
    registry of announced trackers.  Everything host-specific — sim
    clocks, heartbeat gap histograms, tracker expiry, trace emission —
    stays with the host.

    Two entry styles into the same decision path:

    * :meth:`select` — the embedding API the DES JobTracker uses: takes a
      live :class:`~repro.hadoop.tasktracker.TrackerStatus`, returns live
      :class:`~repro.hadoop.job.Task` objects.  No request/response
      objects are constructed, keeping the ~400k-heartbeat hot path
      allocation-free.
    * :meth:`heartbeat` — the protocol API wire hosts use: plain-data in,
      plain-data out, with assigned tasks parked in a live-task index so
      later wire reports can be resolved back to objects.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        *,
        control_interval: float,
        registry: Optional[MetricsRegistry] = None,
        start_time: float = 0.0,
    ) -> None:
        if control_interval <= 0:
            raise ValueError("control interval must be positive")
        self.scheduler = scheduler
        self.control_interval = control_interval
        self.registry = registry
        self.trackers: Dict[int, TrackerInfo] = {}
        #: index of the last fired control interval (0 before the first)
        self.interval_index = 0
        self._next_deadline = start_time + control_interval
        #: live tasks assigned through :meth:`heartbeat`, keyed by task id,
        #: so wire hosts can resolve reports back to task objects; entries
        #: are dropped when the task's report arrives.
        self._live: Dict[str, "Task"] = {}
        # Telemetry hook (see attach_telemetry); the default keeps the
        # select hot path at one attribute check.
        self.telemetry = None
        #: countdown to the next stride-sampled ``select_tasks`` timing
        #: (see ``repro.observability.telemetry.SAMPLE_STRIDE``)
        self._select_tick = 0
        self._assignment_counters: Dict[tuple, Counter] = {}
        self._completion_counters: Dict[tuple, Counter] = {}
        #: map/reduce counts of the most recent :meth:`select` batch, so
        #: hosts can trace them without recounting (no tuple allocation
        #: on the hot path).
        self.last_maps = 0
        self.last_reduces = 0
        # Running totals (cheap int bumps; the serve stats surface).
        self.heartbeats_handled = 0
        self.tasks_assigned = 0
        self.reports_handled = 0
        self._tap: Optional[CoreTap] = None

    # ---------------------------------------------------------------- wiring
    def set_tap(self, tap: Optional[CoreTap]) -> None:
        """Install (or clear) the session-recording tap.

        With a tap installed every core interaction is also emitted as a
        wire-shaped dict — the recording side of the record/replay parity
        harness.  ``None`` restores the zero-cost path.
        """
        self._tap = tap

    def attach_telemetry(self, sink) -> None:
        """Attach a telemetry sink to the select path."""
        self.telemetry = sink

    # ------------------------------------------------------------- lifecycle
    def register_tracker(self, info: TrackerInfo) -> None:
        self.trackers[info.machine_id] = info
        if self._tap is not None:
            self._tap({"type": "register", **info.to_wire()})

    def job_added(self, job: "Job") -> None:
        """Relay a host's job admission to the scheduler (and the tap)."""
        if self._tap is not None:
            self._tap({"type": "submit", "job": job_to_wire(job)})
        self.scheduler.on_job_added(job)

    def job_removed(self, job: "Job") -> None:
        self.scheduler.on_job_removed(job)

    # -------------------------------------------------------------- decisions
    def select(self, status: "TrackerStatus", now: float) -> List["Task"]:
        """Run one assignment decision against a live tracker snapshot.

        This is the exact decision path formerly inlined in
        ``JobTracker.heartbeat``: stride-sampled ``select_tasks`` timing,
        the Eq. 1 slot-constraint audit, and per-model assignment
        counters.  ``now`` only feeds instrumentation — the scheduler
        reads its own clock through its binding.  ``status`` may be any
        object with the ``TrackerStatus`` fields (a wire
        :class:`HeartbeatRequest` has them all).
        """
        self.heartbeats_handled += 1
        sink = self.telemetry
        if sink is not None:
            # Stride-sampled timing: the two clock reads are the dominant
            # instrumentation cost at ~400k heartbeats per fleet-scale run,
            # so only every SAMPLE_STRIDE-th select is timed for the latency
            # histogram.  Batch sizes need no clock and are observed every
            # heartbeat.
            tick = self._select_tick - 1
            if tick < 0:
                self._select_tick = SAMPLE_STRIDE - 1
                started = perf_counter()
                assignments = self._select_tasks(status)
                sink.observe_heartbeat(perf_counter() - started, len(assignments))
            else:
                self._select_tick = tick
                assignments = self._select_tasks(status)
                sink.observe_batch(len(assignments))
        else:
            assignments = self._select_tasks(status)
        maps = reduces = 0
        if assignments:  # empty heartbeats (the common case at scale) skip the audit
            maps = sum(1 for t in assignments if t.is_map)
            reduces = len(assignments) - maps
            if maps > status.free_map_slots or reduces > status.free_reduce_slots:
                info = self.trackers.get(status.machine_id)
                hostname = info.hostname if info is not None else f"machine-{status.machine_id}"
                raise RuntimeError(
                    f"scheduler over-assigned {hostname}: "
                    f"{maps} maps into {status.free_map_slots} slots, "
                    f"{reduces} reduces into {status.free_reduce_slots}"
                )
            self.tasks_assigned += len(assignments)
        self.last_maps = maps
        self.last_reduces = reduces
        if self.registry is not None and assignments:
            info = self.trackers.get(status.machine_id)
            model = info.model if info is not None else "unknown"
            for task in assignments:
                key = (model, task.kind.value)
                counter = self._assignment_counters.get(key)
                if counter is None:
                    counter = self.registry.counter(
                        "assignments_total",
                        scheduler=self.scheduler.name,
                        model=model,
                        kind=task.kind.value,
                    )
                    self._assignment_counters[key] = counter
                counter.inc()
        if self._tap is not None:
            request = HeartbeatRequest(
                status.machine_id,
                now,
                status.free_map_slots,
                status.free_reduce_slots,
                status.running_maps,
                status.running_reduces,
            )
            self._tap(
                {
                    "type": "heartbeat",
                    "request": request.to_wire(),
                    "directives": [_directive(t).to_wire() for t in assignments],
                }
            )
        return assignments

    def _select_tasks(self, status: "TrackerStatus") -> List["Task"]:
        """The policy's decision, skipped while no job has work.

        ``may_assign()`` False promises that ``select_tasks`` would be a
        no-op, so the no-work heartbeats that dominate an idle cluster
        never enter the policy (``reference_mode()`` always enters it).
        """
        scheduler = self.scheduler
        if scheduler.may_assign():
            return scheduler.select_tasks(status)
        return []

    def heartbeat(self, request: HeartbeatRequest) -> AssignmentResponse:
        """Protocol entry: plain-data heartbeat in, plain-data response out."""
        tasks = self.select(request, request.now)
        if not tasks:
            return AssignmentResponse(request.machine_id, request.now)
        live = self._live
        directives = []
        for task in tasks:
            live[task.task_id] = task
            directives.append(_directive(task))
        return AssignmentResponse(request.machine_id, request.now, tuple(directives))

    def resolve(self, task_id: str) -> "Task":
        """Look up a live task previously assigned through :meth:`heartbeat`."""
        try:
            return self._live[task_id]
        except KeyError:
            raise KeyError(f"no live task {task_id!r} (never assigned, or already reported)") from None

    # ------------------------------------------------------------ completions
    def task_report(self, report: "TaskReport") -> None:
        """Count the completion and feed it to the scheduler's analyzer."""
        self.reports_handled += 1
        self._live.pop(report.task_id, None)
        if self.registry is not None:
            info = self.trackers.get(report.machine_id)
            model = info.model if info is not None else "unknown"
            key = (model, report.kind.value)
            counter = self._completion_counters.get(key)
            if counter is None:
                counter = self.registry.counter(
                    "tasks_completed_total", model=key[0], kind=key[1]
                )
                self._completion_counters[key] = counter
            counter.inc()
        if self._tap is not None:
            self._tap({"type": "report", **task_report_to_wire(report)})
        self.scheduler.on_task_completed(report)

    # ------------------------------------------------------------------ clock
    def advance_time(
        self, now: float, on_interval: Optional[Callable[[int], None]] = None
    ) -> None:
        """Fire every control-interval tick due at or before ``now``.

        The deadline accumulates by repeated addition — exactly how the
        DES control loop's ``timeout`` chain accumulates — so a DES host
        calling this once per loop iteration fires on bit-identical
        floats.  A clock that jumps several intervals (a late ``tick``
        message) fires all missed ticks in order.  ``on_interval`` (if
        given) runs before each scheduler tick with the 1-based interval
        index — the DES host's trace hook.
        """
        while self._next_deadline <= now:
            self.interval_index += 1
            if on_interval is not None:
                on_interval(self.interval_index)
            self._next_deadline += self.control_interval
            if self._tap is not None:
                self._tap({"type": "tick", "now": now, "index": self.interval_index})
            self.scheduler.on_control_interval(now)


def job_to_wire(job: "Job") -> Dict[str, Any]:
    """Serialize an admitted job completely enough to rebuild it elsewhere.

    Embeds the full :class:`~repro.workloads.profiles.WorkloadProfile`
    (plain floats) rather than its name, so replay does not depend on a
    profile registry; per-map input sizes and replica placements travel
    explicitly because the submitting host already drew its skew/HDFS
    randomness.
    """
    spec = job.spec
    profile = spec.profile
    return {
        "job_id": job.job_id,
        "name": spec.name,
        "pool": spec.pool,
        "size_class": spec.size_class,
        "submit_time": spec.submit_time,
        "input_mb": spec.input_mb,
        "num_reduces": spec.num_reduces,
        "profile": {
            "name": profile.name,
            "map_cpu_seconds": profile.map_cpu_seconds,
            "map_io_seconds": profile.map_io_seconds,
            "map_output_ratio": profile.map_output_ratio,
            "reduce_cpu_per_mb": profile.reduce_cpu_per_mb,
            "reduce_io_per_mb": profile.reduce_io_per_mb,
            "map_cores": profile.map_cores,
            "reduce_cores": profile.reduce_cores,
        },
        "map_input_sizes": [task.input_mb for task in job.maps],
        "replica_hosts": [list(task.preferred_hosts) for task in job.maps],
    }
