"""Declarative fault plans: typed, validated schedules of cluster events.

A :class:`FaultPlan` is a frozen list of :class:`FaultEvent` records — the
churn a run will experience, fixed before the simulation starts.  Plans are
data, not behaviour: they serialize to canonical JSON, participate in
:class:`~repro.runner.spec.ScenarioSpec` identity (so cached results keyed
by spec hash distinguish faulted from fault-free runs), and are executed by
:class:`~repro.faults.injector.FaultInjector`.

Event kinds
-----------
``crash``
    The machine's TaskTracker dies silently: heartbeats stop, resident
    attempts are lost.  The JobTracker discovers the failure via heartbeat
    expiry and requeues the in-flight tasks.  The box keeps drawing idle
    power (hung, not unplugged).
``recover``
    A previously crashed TaskTracker restarts, re-registers with the
    JobTracker, and resumes heartbeating — empty-handed, as a real
    restarted daemon does.
``join``
    A brand-new machine of catalog type ``model`` is commissioned into the
    cluster: energy accounting starts at the join instant, a TaskTracker
    spins up, and the scheduler is told (E-Ant seeds pheromone paths at the
    prior).  The machine holds no HDFS blocks, like a fresh DataNode before
    the balancer runs.
``decommission``
    The machine is removed from service for good: running attempts are
    killed and requeued immediately, the machine powers off (no further
    joules), and the scheduler prunes its state.
``slowdown``
    Thermal throttling: the machine runs at ``factor`` of rated CPU/IO
    speed and its dynamic power scales by the same factor, for
    ``duration`` seconds (or permanently if omitted).  Phases already in
    flight keep their sampled duration — the same quasi-static
    approximation the network model applies to flows.
``flaky_heartbeats``
    Each heartbeat is independently dropped with ``drop_probability``
    (drawn from the dedicated ``"faults"`` RNG stream) for ``duration``
    seconds; long streaks of drops trip tracker expiry exactly like a
    crash would.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultPlanError"]


class FaultPlanError(ValueError):
    """A fault plan (or its JSON form) is malformed."""


class FaultKind(str, enum.Enum):
    """The vocabulary of cluster-dynamics events."""

    CRASH = "crash"
    RECOVER = "recover"
    JOIN = "join"
    DECOMMISSION = "decommission"
    SLOWDOWN = "slowdown"
    FLAKY_HEARTBEATS = "flaky_heartbeats"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that target an existing machine (``machine_id`` required).
_TARGETED = (
    FaultKind.CRASH,
    FaultKind.RECOVER,
    FaultKind.DECOMMISSION,
    FaultKind.SLOWDOWN,
    FaultKind.FLAKY_HEARTBEATS,
)

_EVENT_FIELDS = ("time", "kind", "machine_id", "model", "factor", "duration", "drop_probability")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled cluster-dynamics event.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) the event fires.
    kind:
        What happens (see the module docstring for semantics).
    machine_id:
        Target machine — required for every kind except ``join``.
    model:
        Catalog machine type for ``join`` (e.g. ``"T420"``, ``"Atom"``).
    factor:
        ``slowdown`` speed/power multiplier in (0, 1].
    duration:
        ``slowdown`` / ``flaky_heartbeats`` window length in seconds;
        omitted means the condition persists to the end of the run.
    drop_probability:
        ``flaky_heartbeats`` per-heartbeat drop chance in (0, 1].
    """

    time: float
    kind: FaultKind
    machine_id: Optional[int] = None
    model: Optional[str] = None
    factor: Optional[float] = None
    duration: Optional[float] = None
    drop_probability: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            try:
                object.__setattr__(self, "kind", FaultKind(self.kind))
            except ValueError:
                known = ", ".join(k.value for k in FaultKind)
                raise FaultPlanError(
                    f"unknown fault kind {self.kind!r}; known kinds: {known}"
                ) from None
        if not isinstance(self.time, (int, float)) or isinstance(self.time, bool):
            raise FaultPlanError(f"event time must be a number, got {self.time!r}")
        object.__setattr__(self, "time", float(self.time))
        if not math.isfinite(self.time) or self.time < 0:
            raise FaultPlanError(f"event time must be finite and >= 0, got {self.time}")

        kind = self.kind
        if kind in _TARGETED:
            if not isinstance(self.machine_id, int) or isinstance(self.machine_id, bool) or self.machine_id < 0:
                raise FaultPlanError(
                    f"{kind.value} at t={self.time:g} needs a non-negative integer machine_id"
                )
            if self.model is not None:
                raise FaultPlanError(f"{kind.value} does not take a model")
        else:  # JOIN
            if not isinstance(self.model, str) or not self.model.strip():
                raise FaultPlanError(
                    f"join at t={self.time:g} needs a catalog model name"
                )
            if self.machine_id is not None:
                raise FaultPlanError(
                    "join does not take a machine_id (ids are assigned at join time)"
                )

        if kind is FaultKind.SLOWDOWN:
            if (
                not isinstance(self.factor, (int, float))
                or isinstance(self.factor, bool)
                or not 0.0 < float(self.factor) <= 1.0
            ):
                raise FaultPlanError(
                    f"slowdown at t={self.time:g} needs factor in (0, 1]"
                )
            object.__setattr__(self, "factor", float(self.factor))
        elif self.factor is not None:
            raise FaultPlanError(f"{kind.value} does not take a factor")

        if kind is FaultKind.FLAKY_HEARTBEATS:
            if (
                not isinstance(self.drop_probability, (int, float))
                or isinstance(self.drop_probability, bool)
                or not 0.0 < float(self.drop_probability) <= 1.0
            ):
                raise FaultPlanError(
                    f"flaky_heartbeats at t={self.time:g} needs drop_probability in (0, 1]"
                )
            object.__setattr__(self, "drop_probability", float(self.drop_probability))
        elif self.drop_probability is not None:
            raise FaultPlanError(f"{kind.value} does not take a drop_probability")

        if self.duration is not None:
            if kind not in (FaultKind.SLOWDOWN, FaultKind.FLAKY_HEARTBEATS):
                raise FaultPlanError(f"{kind.value} does not take a duration")
            if (
                not isinstance(self.duration, (int, float))
                or isinstance(self.duration, bool)
                or not math.isfinite(float(self.duration))
                or float(self.duration) <= 0
            ):
                raise FaultPlanError(
                    f"{kind.value} at t={self.time:g} needs a positive finite duration"
                )
            object.__setattr__(self, "duration", float(self.duration))

    # ------------------------------------------------------------------ JSON
    def to_json_dict(self) -> Dict[str, Any]:
        """Canonical JSON form: ``kind`` as its string value, no nulls."""
        out: Dict[str, Any] = {"time": self.time, "kind": self.kind.value}
        for name in ("machine_id", "model", "factor", "duration", "drop_probability"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json_dict(cls, data: Any) -> "FaultEvent":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault event must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_EVENT_FIELDS))
        if unknown:
            raise FaultPlanError(
                f"unknown fault event field(s): {', '.join(unknown)}"
            )
        if "time" not in data or "kind" not in data:
            raise FaultPlanError("fault event needs 'time' and 'kind'")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultEvent` records.

    Events are stored sorted by time (stable, so same-instant events keep
    their authored order).  The plan statically checks that every
    ``recover`` is preceded by a ``crash`` of the same machine, catching
    the most common authoring mistake before any simulation runs.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(
            sorted(self.events, key=lambda e: e.time)
        )
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FaultPlanError(f"plan entries must be FaultEvent, got {event!r}")
        crashed: set = set()
        for event in events:
            if event.kind is FaultKind.CRASH:
                if event.machine_id in crashed:
                    raise FaultPlanError(
                        f"machine {event.machine_id} crashed twice without recovering"
                    )
                crashed.add(event.machine_id)
            elif event.kind is FaultKind.RECOVER:
                if event.machine_id not in crashed:
                    raise FaultPlanError(
                        f"recover at t={event.time:g} targets machine "
                        f"{event.machine_id}, which has no preceding crash"
                    )
                crashed.discard(event.machine_id)
            elif event.kind is FaultKind.DECOMMISSION:
                crashed.discard(event.machine_id)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------ JSON
    def to_json_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_json_dict() for event in self.events]}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: Any) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"events"})
        if unknown:
            raise FaultPlanError(f"unknown fault plan field(s): {', '.join(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise FaultPlanError("'events' must be a list")
        try:
            parsed = [FaultEvent.from_json_dict(entry) for entry in events]
        except TypeError as error:
            raise FaultPlanError(f"malformed fault event: {error}") from None
        return cls(events=tuple(parsed))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"invalid JSON: {error}") from None
        return cls.from_json_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (CLI ``--faults`` entry point)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as error:
            raise FaultPlanError(f"cannot read fault plan {path}: {error}") from None
        return cls.from_json(text)

    # ------------------------------------------------------------- factories
    @classmethod
    def crash_and_rejoin(
        cls, machine_id: int, at: float, rejoin_after: float
    ) -> "FaultPlan":
        """The canonical churn timeline: one crash, one recovery."""
        return cls(
            events=(
                FaultEvent(time=at, kind=FaultKind.CRASH, machine_id=machine_id),
                FaultEvent(
                    time=at + rejoin_after,
                    kind=FaultKind.RECOVER,
                    machine_id=machine_id,
                ),
            )
        )
