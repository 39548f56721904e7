"""Portable run results: everything the figure harnesses consume, picklable.

A :class:`~repro.runner.engine.ScenarioResult` holds the *live* simulation
object graph (simulator, cluster, jobtracker) — great for interactive
inspection, impossible to pickle across a ``multiprocessing`` boundary or
store in a cache.  :class:`RunRecord` is its portable projection: the
:class:`~repro.metrics.RunMetrics` (with a detached collector), the fleet
composition, optional meter readings, the E-Ant convergence summary, and
per-job phase breakdowns.  :func:`build_record` derives one from a
finished result.

Serial execution, parallel workers, and cache restoration all hand back
the same ``RunRecord`` content for the same spec — the bit-identity
guarantee the sweep runner is built on.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING, Dict, Optional, Tuple

from ..core import EAntScheduler
from ..energy.meter import MeterReading
from ..faults import FaultRecovery
from ..metrics import RunMetrics
from ..observability.telemetry import TelemetryRecord

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ScenarioResult
    from .spec import ScenarioSpec

__all__ = [
    "RunRecord",
    "MeterRecord",
    "ConvergenceRecord",
    "BacklogRecord",
    "build_record",
    "record_digest",
]


@functools.lru_cache(maxsize=None)
def dataclass_field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """Field names of dataclass type ``cls`` in declaration order, else ``None``.

    One table per type, shared by the spec and record projections, so
    neither pays ``dataclasses.fields()`` on every node it visits.
    """
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


#: Leaves returned as themselves, matched by *exact* type: ``IntEnum`` and
#: ``str`` enums take the ``isinstance`` branch below, as they always did.
_PLAIN_SCALARS = frozenset((str, int, bool, type(None)))


def _digestable(value: Any, precision: Optional[int] = None) -> Any:
    """Project ``value`` onto plain JSON data with *exact* float identity.

    Finite floats are rendered with ``float.hex()`` — a bijection on the
    representable doubles — so two records digest equal **iff** every
    number in them is bit-identical.  This is the equality contract the
    differential suite and the golden corpus enforce; ``==`` on floats
    would already do, but a hex digest survives serialization to disk.

    With ``precision`` set, floats are instead rendered in scientific
    notation with that many digits after the point — a *float-tolerance*
    projection where two records digest equal iff every number agrees to
    ``precision + 1`` significant digits.  This is the tier the
    large-fleet differential scenarios use: vectorized reductions over
    thousands of machines are only contractually bit-exact for the
    operations the 16-node corpus pins down, so scale parity is checked
    at tolerance rather than by bit identity.
    """
    cls = type(value)
    if cls in _PLAIN_SCALARS or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if precision is None:
            return value.hex()
        # %.*e canonicalizes -0.0/0.0 apart but folds last-ulp noise;
        # nan/inf format to their names, which is fine for a digest.
        return f"{value:.{precision}e}"
    if isinstance(value, enum.Enum):
        return _digestable(value.value, precision)
    names = dataclass_field_names(cls)
    if names is not None:
        return {name: _digestable(getattr(value, name), precision) for name in names}
    if isinstance(value, (tuple, list)):
        return [_digestable(item, precision) for item in value]
    if isinstance(value, dict):
        # Sort by the projected key so the digest does not depend on dict
        # insertion order (tuple keys become their repr).
        items = [
            (repr(_digestable(k, precision)), _digestable(v, precision))
            for k, v in value.items()
        ]
        return {key: item for key, item in sorted(items, key=lambda kv: kv[0])}
    # Numpy scalars (and anything else float-like) fold to exact doubles.
    if hasattr(value, "item"):
        return _digestable(value.item(), precision)
    raise TypeError(f"cannot digest {type(value).__name__}: {value!r}")


def record_digest(record: "RunRecord", precision: Optional[int] = None) -> str:
    """SHA-256 over a canonical projection of ``record``.

    With ``precision=None`` (the exact tier) two digests match iff the two
    records are bit-identical in every number, string, and shape (modulo
    dict ordering).  With an integer ``precision`` (the float-tolerance
    tier) floats are rounded to that many scientific-notation digits
    first, so the digest tolerates sub-ulp accumulation differences while
    still pinning structure and every non-float value exactly.
    ``wall_seconds`` is host timing, not simulation outcome, so it is
    excluded either way — as is the ``telemetry`` section, an
    observational time-series whose sample count depends on the sampling
    interval.  Dropping it keeps the digest payload byte-identical to
    records produced before telemetry existed, so frozen golden digests
    survive.  The projection walks declared fields only, so a record
    unpickled from an older spool that still carries a since-removed
    attribute (``profile``) digests as it always did.
    """
    stripped = record
    if getattr(record, "telemetry", None) is not None:
        # Null the section *before* projecting: ndarray columns are not
        # digestable, and they must not be.
        stripped = dataclasses.replace(record, telemetry=None)
    data = _digestable(stripped, precision)
    data.pop("wall_seconds", None)
    data.pop("telemetry", None)
    if data.get("backlog") is None:
        # Key absent when empty: closed-loop records keep the digest
        # payload they had before open-loop mode existed.
        data.pop("backlog", None)
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MeterRecord:
    """Detached wall-power meter readings of one run.

    Exposes the subset of the :class:`~repro.energy.ClusterMeter` API the
    exchange experiment consumes (readings + per-machine idle power for
    idle-floor extrapolation past the final sample).
    """

    readings: Tuple[MeterReading, ...]
    idle_watts_by_machine: Dict[int, float]

    def idle_watts(self, machine_id: int) -> float:
        return self.idle_watts_by_machine[machine_id]


@dataclass(frozen=True)
class ConvergenceRecord:
    """E-Ant colony-convergence summary (Figs. 11(a)-(b)).

    ``converged_times`` holds the per-colony stabilization times of the
    colonies that did converge; ``total_colonies`` counts every colony the
    detector ever saw, so censored (never-stabilized) colonies remain
    visible.
    """

    converged_times: Tuple[float, ...]
    total_colonies: int

    @property
    def converged_colonies(self) -> int:
        return len(self.converged_times)


@dataclass(frozen=True)
class BacklogRecord:
    """Admission/backlog accounting of one open-loop (overload) run.

    Produced only when the spec ran with ``open_loop=True``: the run was
    cut at ``horizon`` simulated seconds, and these counters say how much
    of the offered workload was admitted, finished, or still queued at
    the cut.  Part of the digest payload — overload outcomes are
    simulation results, not observations.
    """

    #: The open-loop cutoff (simulated seconds) the run was stopped at.
    horizon: float
    #: Jobs in the spec's workload (arrivals offered to the system).
    jobs_offered: int
    #: Jobs whose arrival fell before the horizon and entered the tracker.
    jobs_admitted: int
    #: Admitted jobs that finished before the horizon.
    jobs_completed: int
    #: Admitted jobs still unfinished at the horizon (the job backlog).
    jobs_unfinished: int
    #: Offered jobs whose arrival fell at/after the horizon (never admitted).
    jobs_not_admitted: int
    #: Map/reduce tasks that completed before the horizon.
    tasks_completed: int
    #: Map tasks still pending (queued, unlaunched) at the horizon.
    maps_pending: int
    #: Reduce tasks still pending at the horizon.
    reduces_pending: int

    @property
    def offered_rate_per_s(self) -> float:
        """Mean arrival rate the workload offered over the horizon."""
        return self.jobs_offered / self.horizon if self.horizon > 0 else 0.0

    @property
    def completion_rate_per_s(self) -> float:
        """Mean job drain rate the system achieved over the horizon."""
        return self.jobs_completed / self.horizon if self.horizon > 0 else 0.0

    @property
    def saturated(self) -> bool:
        """True when jobs arrived faster than they drained (backlog grew)."""
        return self.jobs_unfinished > 0


@dataclass(frozen=True)
class RunRecord:
    """The portable outcome of executing one :class:`ScenarioSpec`."""

    spec_hash: str
    metrics: RunMetrics
    #: machine model -> number of machines in the fleet
    machines_by_model: Dict[str, int]
    meter: Optional[MeterRecord] = None
    convergence: Optional[ConvergenceRecord] = None
    #: job name -> {"map": s, "shuffle": s, "reduce": s} wall-clock seconds
    phase_breakdown_by_job: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per-disruptive-fault recovery summaries (empty on fault-free runs)
    faults: Tuple[FaultRecovery, ...] = ()
    #: Columnar fleet time-series (runs executed with ``telemetry=``);
    #: excluded from digests — observational, interval-dependent shape
    telemetry: Optional[TelemetryRecord] = None
    #: Open-loop backlog/admission accounting (None on closed-loop runs;
    #: dropped from the digest payload when absent so pre-existing golden
    #: digests survive)
    backlog: Optional[BacklogRecord] = None
    #: seconds of wall-clock time the producing run took (0.0 on restore
    #: from cache the field keeps the *original* run's cost)
    wall_seconds: float = 0.0


def build_record(spec: "ScenarioSpec", result: "ScenarioResult", wall_seconds: float = 0.0) -> RunRecord:
    """Project a finished :class:`ScenarioResult` into a :class:`RunRecord`."""
    cluster = result.cluster
    machines_by_model: Dict[str, int] = {}
    for machine in cluster:
        model = machine.spec.model
        machines_by_model[model] = machines_by_model.get(model, 0) + 1

    meter: Optional[MeterRecord] = None
    if result.meter is not None:
        meter = MeterRecord(
            readings=tuple(result.meter.readings),
            idle_watts_by_machine={
                machine.machine_id: machine.spec.power.idle_watts for machine in cluster
            },
        )

    convergence: Optional[ConvergenceRecord] = None
    if isinstance(result.scheduler, EAntScheduler):
        detector = result.scheduler.convergence
        times = [
            detector.convergence_time(colony) for colony in detector.converged_at
        ]
        convergence = ConvergenceRecord(
            converged_times=tuple(t for t in times if t is not None),
            total_colonies=len(detector.first_seen),
        )

    breakdowns: Dict[str, Dict[str, float]] = {}
    for job in result.jobtracker.completed_jobs:
        breakdowns[job.name] = job.phase_breakdown()

    recoveries: Tuple[FaultRecovery, ...] = ()
    if result.injector is not None:
        recoveries = tuple(result.injector.recovery_summary())

    telemetry: Optional[TelemetryRecord] = None
    if result.telemetry is not None:
        telemetry = result.telemetry.record()

    return RunRecord(
        spec_hash=spec.spec_hash(),
        metrics=result.metrics.portable(),
        machines_by_model=machines_by_model,
        meter=meter,
        convergence=convergence,
        phase_breakdown_by_job=breakdowns,
        faults=recoveries,
        telemetry=telemetry,
        backlog=result.backlog,
        wall_seconds=wall_seconds,
    )
