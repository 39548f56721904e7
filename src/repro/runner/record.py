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
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as encode_json_str
from typing import Any, TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

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

_STR = frozenset((str,))
#: ``"text"`` and ``text:value`` of the JSON the payload writer emits.
_QUOTED = '"{}"'.format
_MEMBER = "{}:{}".format

#: Instance attribute holding a record's exact-tier digest once computed.
_DIGEST_ATTR = "_record_digest"

#: Record fields the digest never covers: host timing and the
#: observational telemetry section (see :func:`record_digest`).
_UNDIGESTED = frozenset(("wall_seconds", "telemetry"))
_UNDIGESTED_NO_BACKLOG = _UNDIGESTED | {"backlog"}


#: JSON key texts of a dataclass's fields and a getter of their values.
_Fields = Tuple[Tuple[str, ...], Callable[[Any], Tuple[Any, ...]]]


@functools.lru_cache(maxsize=None)
def _sorted_fields(cls: type, omit: frozenset = frozenset()) -> _Fields:
    """JSON key texts (``'"name":'``) of dataclass ``cls``'s fields sorted
    by name, minus ``omit``, and a getter of their values in that order."""
    names = [name for name in sorted(dataclass_field_names(cls)) if name not in omit]
    keys = tuple(encode_json_str(name) + ":" for name in names)
    if len(names) > 1:
        return keys, operator.attrgetter(*names)
    return keys, lambda value: tuple(getattr(value, name) for name in names)


class _PayloadWriter:
    """Writes the canonical digest payload of a value as JSON text.

    The projection: finite floats become ``float.hex()`` strings — a
    bijection on the representable doubles — so two values digest equal
    **iff** every number in them is bit-identical.  This is the equality
    contract the differential suite and the golden corpus enforce.  With
    ``precision`` set, floats are instead rendered in scientific
    notation with that many digits after the point — a *float-tolerance*
    projection where two values digest equal iff every number agrees to
    ``precision + 1`` significant digits, the tier the large-fleet
    differential scenarios use.  ``%.*e`` keeps ``-0.0`` apart from
    ``0.0`` and names nan/inf.  Enums become their values, dataclasses
    objects of their declared fields, tuples and lists arrays, numpy
    scalars their ``item()``, and a dict an object keyed by the ``repr``
    of each projected key (so tuple keys work; of keys whose text
    collides, the last inserted wins).

    The text is exactly ``json.dumps(projection, sort_keys=True,
    separators=(",", ":"))``, written in one walk without building the
    projection.  Exact types dispatch through one table; any other type
    is routed once through the original ``isinstance`` order (``str`` and
    ``int`` subclasses such as ``IntEnum`` and ``str`` enums stay
    themselves, then floats, enums, dataclasses, sequences, dicts, numpy
    scalars) and its writer is added to the table.
    """

    def __init__(self, precision: Optional[int]) -> None:
        if precision is None:
            self.render: Callable[[float], str] = float.hex
        else:
            spec = f".{precision}e"
            self.render = lambda value: float.__format__(value, spec)
        self._writers: Dict[type, Callable[[Any], str]] = {
            str: encode_json_str,
            int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): "null".format,  # ignores its argument
            float: self._float,
            tuple: self._sequence,
            list: self._sequence,
            dict: self._dict,
        }

    def write(self, value: Any) -> str:
        writer = self._writers.get(type(value))
        if writer is None:
            writer = self._resolve(type(value))
            if writer is None:
                raise TypeError(f"cannot digest {type(value).__name__}: {value!r}")
            self._writers[type(value)] = writer
        return writer(value)

    def write_fields(self, value: Any, fields: _Fields) -> str:
        """``value``'s fields as an object; ``fields`` from :func:`_sorted_fields`."""
        keys, values = fields
        return "{" + ",".join(map(str.__add__, keys, self._texts(values(value)))) + "}"

    def _texts(self, items: Sequence[Any]) -> List[str]:
        """The JSON text of each item."""
        if items and type(items[0]) is float:
            # Float runs (timings, readings) in one C-level pass; the
            # renderer refuses a non-float, which sends the whole run
            # down the general path.
            try:
                return list(map(_QUOTED, map(self.render, items)))
            except TypeError:
                pass
        # ``get(cls, write)`` calls a known type's writer without a frame
        # for :meth:`write`; unknown types go through it.
        get, write, render = self._writers.get, self.write, self.render
        return [
            '"' + render(item) + '"' if type(item) is float else get(type(item), write)(item)
            for item in items
        ]

    def _resolve(self, cls: type) -> Optional[Callable[[Any], str]]:
        if issubclass(cls, str):
            return encode_json_str
        if issubclass(cls, int):
            return int.__repr__
        if issubclass(cls, float):
            return self._float
        if issubclass(cls, enum.Enum):
            return lambda value: self.write(value.value)
        if dataclass_field_names(cls) is not None:
            return functools.partial(self.write_fields, fields=_sorted_fields(cls))
        if issubclass(cls, (tuple, list)):
            return self._sequence
        if issubclass(cls, dict):
            return self._dict
        if hasattr(cls, "item"):
            return lambda value: self.write(value.item())
        return None

    def _float(self, value: float) -> str:
        return '"' + self.render(value) + '"'

    def _sequence(self, value: Sequence[Any]) -> str:
        return "[" + ",".join(self._texts(value)) + "]"

    def _dict(self, value: Dict[Any, Any]) -> str:
        if _STR.issuperset(map(type, value)):
            names = map(repr, value)
        else:
            names = map(self._key, value)
        # Of keys whose text collides, the last inserted wins.
        latest = dict(zip(names, value.values()))
        keys = sorted(latest)
        texts = self._texts([latest[key] for key in keys])
        return "{" + ",".join(map(_MEMBER, map(encode_json_str, keys), texts)) + "}"

    def _key(self, key: Any) -> str:
        cls = type(key)
        if cls is str or cls is int:
            return repr(key)
        if cls is tuple and _PLAIN_SCALARS.issuperset(map(type, key)):
            return repr(list(key))
        return repr(self._project(key))

    def _project(self, value: Any) -> Any:
        """The projected Python value of a dict key (its ``repr`` is the
        key's text) — the one place the projection is still built."""
        cls = type(value)
        if cls in _PLAIN_SCALARS or isinstance(value, (int, str)):
            return value
        if isinstance(value, float):
            return self.render(value)
        if isinstance(value, enum.Enum):
            return self._project(value.value)
        names = dataclass_field_names(cls)
        if names is not None:
            return {name: self._project(getattr(value, name)) for name in names}
        if isinstance(value, (tuple, list)):
            return [self._project(item) for item in value]
        if isinstance(value, dict):
            items = sorted(
                [(repr(self._project(k)), self._project(v)) for k, v in value.items()],
                key=lambda kv: kv[0],
            )
            return dict(items)
        if hasattr(value, "item"):
            return self._project(value.item())
        raise TypeError(f"cannot digest {type(value).__name__}: {value!r}")


@functools.lru_cache(maxsize=None)
def _writer(precision: Optional[int]) -> _PayloadWriter:
    return _PayloadWriter(precision)


def _record_payload(record: "RunRecord", precision: Optional[int]) -> str:
    """The digest payload of ``record``: its declared fields minus
    ``wall_seconds``, ``telemetry`` and an absent ``backlog``."""
    omit = _UNDIGESTED_NO_BACKLOG if getattr(record, "backlog", None) is None else _UNDIGESTED
    return _writer(precision).write_fields(record, _sorted_fields(type(record), omit))


def record_digest(record: "RunRecord", precision: Optional[int] = None) -> str:
    """SHA-256 over a canonical projection of ``record``.

    With ``precision=None`` (the exact tier) two digests match iff the two
    records are bit-identical in every number, string, and shape (modulo
    dict ordering).  With an integer ``precision`` (the float-tolerance
    tier) floats are rounded to that many scientific-notation digits
    first, so the digest tolerates sub-ulp accumulation differences while
    still pinning structure and every non-float value exactly (see
    :class:`_PayloadWriter`).
    ``wall_seconds`` is host timing, not simulation outcome, so it is
    excluded either way — as is the ``telemetry`` section, an
    observational time-series whose sample count depends on the sampling
    interval.  Dropping it keeps the digest payload byte-identical to
    records produced before telemetry existed, so frozen golden digests
    survive; an absent ``backlog`` is dropped for the same reason.  The
    projection walks declared fields only, so a record unpickled from an
    older spool that still carries a since-removed attribute
    (``profile``) digests as it always did.

    The exact-tier digest is computed once per record and kept on the
    instance (like :meth:`ScenarioSpec.spec_hash`): a record is frozen,
    and the kept value takes no part in ``==`` or the pickled state.
    """
    if precision is None:
        digest = record.__dict__.get(_DIGEST_ATTR)
        if digest is not None:
            return digest
    payload = _record_payload(record, precision)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if precision is None:
        object.__setattr__(record, _DIGEST_ATTR, digest)
    return digest


def remember_digest(record: "RunRecord", digest: str) -> None:
    """Seed ``record``'s kept exact-tier digest with one stored alongside
    it by a trusted writer (a salted cache generation), so
    :func:`record_digest` does not recompute it."""
    object.__setattr__(record, _DIGEST_ATTR, digest)


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

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the fields only; the receiver re-derives the digest."""
        state = dict(self.__dict__)
        state.pop(_DIGEST_ATTR, None)
        return state


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
