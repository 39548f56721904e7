"""Declarative scenario descriptions: frozen, hashable, picklable.

A :class:`ScenarioSpec` captures *everything that determines the outcome*
of one simulation run — workload, scheduler name (plus E-Ant tuning),
fleet, Hadoop config, noise model, seed, and metering options — as one
frozen dataclass.  Because every nested piece is itself a frozen
dataclass of plain numbers and strings, a spec:

* is hashable and picklable (it travels across ``multiprocessing``
  worker boundaries untouched),
* serializes to *canonical JSON* (sorted keys, no whitespace), and
* therefore has a stable content hash — :meth:`ScenarioSpec.spec_hash` —
  that is identical across processes, machines, and dict orderings, and
  changes whenever any outcome-affecting field changes.

The content hash keys the result cache (:mod:`repro.runner.cache`).
The ``label`` field is presentation metadata and deliberately excluded
from the identity.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..cluster import MachineSpec, PowerModel, paper_fleet
from ..core import EAntConfig, ExchangeLevel
from ..faults import FaultPlan
from ..hadoop import HadoopConfig
from ..noise import DEFAULT_NOISE, NoiseModel
from ..workloads import JobSpec, TraceRef, TraceSpec, WorkloadProfile
from .engine import SCHEDULER_NAMES
from .record import dataclass_field_names

__all__ = ["ScenarioSpec", "SPEC_VERSION", "canonical_json"]

#: Bumped whenever the spec schema itself changes shape, so hashes from
#: incompatible schema generations can never collide.
SPEC_VERSION = 1

Fleet = Tuple[Tuple[MachineSpec, int], ...]


#: Leaf types JSON renders as themselves, matched by *exact* type so that
#: subclasses (``IntEnum``, ``str`` enums) still take the ``Enum`` branch.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Instance attribute memoizing :meth:`ScenarioSpec.spec_hash`; never
#: pickled, so a spec that crosses a process boundary re-derives it.
_HASH_ATTR = "_spec_hash"


def _jsonable(value: Any) -> Any:
    """Recursively convert a spec field into canonical-JSON-ready data."""
    cls = type(value)
    if cls in _JSON_SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    names = dataclass_field_names(cls)
    if names is not None:
        return {name: _jsonable(getattr(value, name)) for name in names}
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def canonical_json(data: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, no NaN laundering."""
    return json.dumps(_jsonable(data), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------- from-JSON
def _profile_from_dict(data: Dict[str, Any]) -> WorkloadProfile:
    return WorkloadProfile(**data)


def _job_from_dict(data: Dict[str, Any]) -> JobSpec:
    data = dict(data)
    data["profile"] = _profile_from_dict(data["profile"])
    return JobSpec(**data)


def _machine_from_dict(data: Dict[str, Any]) -> MachineSpec:
    data = dict(data)
    data["power"] = PowerModel(**data["power"])
    return MachineSpec(**data)


def _eant_from_dict(data: Dict[str, Any]) -> EAntConfig:
    data = dict(data)
    data["exchange"] = ExchangeLevel(data["exchange"])
    return EAntConfig(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative, content-addressable simulation run.

    Parameters
    ----------
    jobs:
        The workload (tuple of :class:`~repro.workloads.JobSpec`; lists
        are coerced).
    scheduler:
        Scheduler name from :data:`~repro.runner.engine.SCHEDULER_NAMES`.
    fleet:
        ``(spec, count)`` pairs; ``None`` normalizes to the paper's
        16-slave fleet so the default and the explicit paper fleet share
        one identity.
    hadoop:
        Framework config; ``None`` normalizes to :class:`HadoopConfig()`.
    noise:
        Noise model; ``None`` normalizes to :data:`DEFAULT_NOISE`.
    seed:
        Master RNG seed (common random numbers across schedulers).
    eant_config:
        E-Ant tuning (only consulted when ``scheduler == "e-ant"``).
    with_meter, meter_interval:
        Attach the periodic wall-power meter; its readings ride along in
        the :class:`~repro.runner.record.RunRecord`.
    max_sim_time:
        Hard cap guarding against non-terminating configurations.
    trace:
        :class:`~repro.workloads.TraceRef` (name + content digest) of the
        trace the ``jobs`` were materialized from, or ``None`` for
        synthetic workloads.  Folded into the identity so trace-driven
        runs cache and sweep like synthetic ones; trace-free specs keep
        their pre-existing hashes.
    open_loop:
        Run in open-loop overload mode: the scenario ends at ``horizon``
        simulated seconds whether or not the workload drained, and the
        run reports backlog/admission accounting instead of requiring
        every job to finish.
    horizon:
        Open-loop cutoff in simulated seconds (required iff
        ``open_loop``); must stay below ``max_sim_time``.
    label:
        Presentation-only tag (excluded from identity and hashing).
    """

    jobs: Tuple[JobSpec, ...]
    scheduler: str = "fair"
    fleet: Optional[Fleet] = None
    hadoop: Optional[HadoopConfig] = None
    noise: Optional[NoiseModel] = None
    seed: int = 0
    eant_config: Optional[EAntConfig] = None
    with_meter: bool = False
    meter_interval: float = 30.0
    max_sim_time: float = 10_000_000.0
    faults: Optional[FaultPlan] = None
    trace: Optional[TraceRef] = None
    open_loop: bool = False
    horizon: Optional[float] = None
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("scenario needs at least one job")
        object.__setattr__(self, "jobs", tuple(self.jobs))
        fleet = self.fleet if self.fleet is not None else paper_fleet()
        object.__setattr__(
            self, "fleet", tuple((spec, int(count)) for spec, count in fleet)
        )
        if self.hadoop is None:
            object.__setattr__(self, "hadoop", HadoopConfig())
        if self.noise is None:
            object.__setattr__(self, "noise", DEFAULT_NOISE)
        key = self.scheduler.strip().lower()
        if key == "eant":
            key = "e-ant"
        object.__setattr__(self, "scheduler", key)
        if key not in SCHEDULER_NAMES:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; known: {SCHEDULER_NAMES}")
        if self.meter_interval <= 0:
            raise ValueError("meter_interval must be positive")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError("faults must be a FaultPlan (or None)")
        if self.faults is not None and not self.faults.events:
            # An empty plan is the same run as no plan; normalize so both
            # spellings share one identity (and one cache entry).
            object.__setattr__(self, "faults", None)
        if self.trace is not None and not isinstance(self.trace, TraceRef):
            raise ValueError("trace must be a TraceRef (or None)")
        if self.open_loop:
            if self.horizon is None:
                raise ValueError("open_loop scenarios require a horizon")
            object.__setattr__(self, "horizon", float(self.horizon))
            if not self.horizon > 0:
                raise ValueError(f"horizon must be positive, got {self.horizon}")
            if self.horizon >= self.max_sim_time:
                raise ValueError(
                    f"horizon ({self.horizon}) must be below max_sim_time "
                    f"({self.max_sim_time})"
                )
        elif self.horizon is not None:
            raise ValueError("horizon is only meaningful with open_loop=True")

    # ------------------------------------------------------------- identity
    def to_json_dict(self) -> Dict[str, Any]:
        """The identity-bearing fields as plain JSON-ready data."""
        out = {
            "spec_version": SPEC_VERSION,
            "jobs": _jsonable(self.jobs),
            "scheduler": self.scheduler,
            "fleet": _jsonable(self.fleet),
            "hadoop": _jsonable(self.hadoop),
            "noise": _jsonable(self.noise),
            "seed": self.seed,
            "eant_config": _jsonable(self.eant_config),
            "with_meter": self.with_meter,
            "meter_interval": self.meter_interval,
            "max_sim_time": self.max_sim_time,
        }
        # Written only when present: a fault-free spec keeps the canonical
        # JSON (hence hash) it had before fault plans existed.
        if self.faults is not None:
            out["faults"] = self.faults.to_json_dict()
        # Same rule for the trace frontend: synthetic closed-loop specs
        # keep the canonical JSON they had before traces existed.
        if self.trace is not None:
            out["trace"] = {"name": self.trace.name, "digest": self.trace.digest}
        if self.open_loop:
            out["open_loop"] = True
            out["horizon"] = self.horizon
        return out

    def canonical_json(self) -> str:
        """Canonical (sorted-key, compact) JSON of the identity fields."""
        return canonical_json(self.to_json_dict())

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON — the cache key material.

        Computed on first call and kept on the instance (64 hex chars, not
        the canonical JSON).  A spec is frozen and every variant is a new
        instance, so the stored hash cannot go stale; it takes no part in
        ``==``, ``hash()`` or the pickled state.
        """
        digest = self.__dict__.get(_HASH_ATTR)
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, _HASH_ATTR, digest)
        return digest

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the fields only; the receiver re-derives the hash."""
        state = dict(self.__dict__)
        state.pop(_HASH_ATTR, None)
        return state

    @property
    def short_hash(self) -> str:
        """First 12 hex digits of :meth:`spec_hash` (display/tree layout)."""
        return self.spec_hash()[:12]

    @property
    def display_label(self) -> str:
        """The label if set, else ``scheduler@seed/hash`` shorthand."""
        if self.label:
            return self.label
        return f"{self.scheduler}@seed{self.seed}/{self.short_hash[:8]}"

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json_dict` output (round-trip)."""
        version = data.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(f"unsupported spec_version {version} (expected {SPEC_VERSION})")
        return cls(
            jobs=tuple(_job_from_dict(job) for job in data["jobs"]),
            scheduler=data["scheduler"],
            fleet=tuple(
                (_machine_from_dict(machine), count) for machine, count in data["fleet"]
            ),
            hadoop=HadoopConfig(**data["hadoop"]),
            noise=NoiseModel(**data["noise"]),
            seed=data["seed"],
            eant_config=(
                _eant_from_dict(data["eant_config"])
                if data.get("eant_config") is not None
                else None
            ),
            with_meter=data["with_meter"],
            meter_interval=data["meter_interval"],
            max_sim_time=data["max_sim_time"],
            faults=(
                FaultPlan.from_json_dict(data["faults"])
                if data.get("faults") is not None
                else None
            ),
            trace=(
                TraceRef(**data["trace"]) if data.get("trace") is not None else None
            ),
            open_loop=data.get("open_loop", False),
            horizon=data.get("horizon"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def from_trace(cls, trace: TraceSpec, **fields: Any) -> "ScenarioSpec":
        """Build a trace-driven spec: jobs materialized, identity folded.

        The trace's rows become the ``jobs`` tuple and its
        :class:`~repro.workloads.TraceRef` (name + content digest) is
        embedded in the identity, so two specs built from content-equal
        traces — whatever file or format they came from — share one hash
        and one cache entry.  All other :class:`ScenarioSpec` fields pass
        through ``fields``.
        """
        if not isinstance(trace, TraceSpec):
            raise TypeError(f"expected a TraceSpec, got {type(trace).__name__}")
        if "jobs" in fields:
            raise ValueError("from_trace derives jobs from the trace")
        return cls(jobs=trace.to_job_specs(), trace=trace.ref(), **fields)

    # ------------------------------------------------------------ execution
    def run(self, **runtime: Any):
        """Execute this spec in-process and return the full
        :class:`~repro.runner.engine.ScenarioResult` (live simulator
        objects included).  ``runtime`` kwargs are forwarded to
        :func:`~repro.runner.engine.execute_spec` (``trace=...`` etc.)."""
        from .engine import execute_spec

        return execute_spec(self, **runtime)

    def run_record(self, **runtime: Any):
        """Execute this spec and return the portable
        :class:`~repro.runner.record.RunRecord` (picklable; what workers
        ship back and the cache stores)."""
        from .record import build_record

        return build_record(self, self.run(**runtime))

    # ------------------------------------------------------------- variants
    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A copy with some fields replaced (grid-expansion helper)."""
        return dataclasses.replace(self, **changes)
