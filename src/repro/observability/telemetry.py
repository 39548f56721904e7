"""Fleet-scale telemetry: columnar time-series with a hard overhead budget.

The PR-2 :class:`~repro.observability.tracer.Tracer` records one Python
object per event — perfect for auditing a 16-node run, unusable on the
1,000-node/100k-task fleets the array-backed kernel simulates.  This
module is the instrument that *does* scale: a :class:`TelemetrySink`
samples fleet-wide aggregates once per control interval into preallocated,
growable NumPy columnar ring buffers, so memory is
``O(classes x samples)`` — per machine *class* (model), never per machine
or per event.

Per sample the sink records:

* fleet gauges — active/decommissioned machines, busy/total map and
  reduce slots, instantaneous power draw, cumulative joules,
  pending/running task counts, active/completed jobs;
* per-class rollups — in-service machines, busy map/reduce slots, and
  power per machine model (2-D ``classes x samples`` arrays);
* pheromone row stats — min/mean/max tau over every colony row of an
  E-Ant scheduler (NaN columns for baseline schedulers);
* log-bucketed histograms of assignment latency (wall-clock of
  ``select_tasks``, stride-sampled — one heartbeat in every
  :data:`SAMPLE_STRIDE` is timed, because the clock reads are the
  dominant hook cost at ~400k heartbeats) and
  heartbeat batch size (every heartbeat; counting needs no clock),
  drained from the JobTracker's per-heartbeat buffers via
  :meth:`~repro.observability.metrics.Histogram.observe_many`.

On a traced run the sink is also the source of the trace's
``metrics.snapshot`` events: given an enabled tracer, each sample emits
one event carrying per-machine utilization/power/joules, the sample's
scalar columns, and the metrics-registry snapshot.

Sampling is pure observation: it consumes no RNG and reads energy through
the non-mutating ``projected_joules`` projection, so a telemetered run is
bit-identical to a bare one (``tests/differential/test_telemetry_parity``
locks this in), and the paired 1,000-node benchmark in
``benchmarks/check_regression.py`` holds the overhead to <= 5 %.

The frozen :class:`TelemetryRecord` projection travels inside
:class:`~repro.runner.record.RunRecord` and round-trips through NPZ
(:func:`write_telemetry_npz`) and JSON (:func:`write_telemetry_json`)
exports, which ``repro profile``/``repro report`` render offline.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)
from zipfile import BadZipFile

import numpy as np
from numpy.lib.npyio import NpzFile

from .metrics import Histogram, MetricsRegistry
from .profiler import ProfileRecord
from .tracer import NULL_TRACER, EventType

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster
    from ..hadoop.jobtracker import JobTracker
    from ..simulation import Simulator

__all__ = [
    "TelemetryConfig",
    "TelemetrySink",
    "TelemetryRecord",
    "telemetry_records_equal",
    "write_telemetry_npz",
    "read_telemetry_npz",
    "write_telemetry_json",
    "read_telemetry_json",
]

#: Scalar per-sample columns, in storage order ("time" first).
COLUMNS = (
    "time",
    "active_machines",
    "decommissioned_machines",
    "busy_map_slots",
    "busy_reduce_slots",
    "total_map_slots",
    "total_reduce_slots",
    "power_watts",
    "energy_joules",
    "pending_maps",
    "pending_reduces",
    "running_maps",
    "running_reduces",
    "active_jobs",
    "completed_jobs",
    "submitted_jobs",
    "tau_min",
    "tau_mean",
    "tau_max",
)

#: Per-machine-class rollup columns (2-D ``classes x samples`` arrays).
CLASS_COLUMNS = ("in_service", "busy_map_slots", "busy_reduce_slots", "power_watts")

#: Log-spaced upper bounds for the assignment-latency histogram (seconds):
#: 1 microsecond to 1 second in decades, then the overflow bucket.
LATENCY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, float("inf"))

#: Power-of-two upper bounds for the heartbeat-batch-size histogram.
BATCH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, float("inf"))

#: Only one heartbeat in every ``SAMPLE_STRIDE`` has its ``select_tasks``
#: latency timed: at ~400k heartbeats per fleet-scale run the two
#: ``perf_counter`` reads around each section are the dominant hook cost,
#: not the histogram bookkeeping.  Heartbeats of a run are statistically
#: alike, so the sampled latencies keep the histogram's shape.
SAMPLE_STRIDE = 8

#: JSON export schema marker (the CLI uses it to tell an export from a trace).
EXPORT_KIND = "repro.telemetry-export"
EXPORT_VERSION = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """Settings behind the ``telemetry=`` knob of ``execute_spec``.

    Parameters
    ----------
    interval:
        Sampling period in simulated seconds; ``None`` (default) samples
        once per Hadoop control interval (the paper's 5-minute loop).
    max_samples:
        Ring-buffer capacity.  Columns grow by doubling up to this cap;
        beyond it the oldest samples are overwritten and
        ``dropped_samples`` counts them.
    """

    interval: Optional[float] = None
    max_samples: int = 8192

    def __post_init__(self) -> None:
        if self.interval is not None and not (self.interval > 0):
            raise ValueError(f"telemetry interval must be positive, got {self.interval}")
        if self.max_samples < 1:
            raise ValueError("telemetry max_samples must be >= 1")

    @classmethod
    def coerce(
        cls, value: Union[None, bool, int, float, "TelemetryConfig"]
    ) -> Optional["TelemetryConfig"]:
        """Normalize the ``telemetry=`` knob: None/False off, True defaults,
        a number is the sampling interval, a config passes through."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, TelemetryConfig):
            return value
        if isinstance(value, (int, float)):
            return cls(interval=float(value))
        raise TypeError(
            f"telemetry= expects None, bool, a sampling interval in seconds, "
            f"or a TelemetryConfig; got {type(value).__name__}"
        )


class _ColumnStore:
    """A preallocated, growable, eventually-wrapping columnar ring buffer.

    Rows are metric names, columns are samples.  The store starts small,
    doubles its capacity up to ``max_samples``, and past that overwrites
    the oldest sample (counting drops) — constant memory at any run
    length.
    """

    __slots__ = ("max_samples", "_data", "_capacity", "total", "dropped")

    def __init__(self, rows: int, max_samples: int, initial_capacity: int = 64) -> None:
        self.max_samples = max_samples
        self._capacity = min(initial_capacity, max_samples)
        self._data = np.zeros((rows, self._capacity), dtype=np.float64)
        #: samples ever appended (>= stored count once wrapped)
        self.total = 0
        #: samples overwritten after the ring filled
        self.dropped = 0

    def append_slot(self) -> int:
        """Reserve the column index for the next sample (grow or wrap)."""
        if self.total < self._capacity:
            slot = self.total
        elif self._capacity < self.max_samples:
            new_capacity = min(self._capacity * 2, self.max_samples)
            grown = np.zeros((self._data.shape[0], new_capacity), dtype=np.float64)
            grown[:, : self._capacity] = self._data
            self._data = grown
            slot = self.total
            self._capacity = new_capacity
        else:
            slot = self.total % self._capacity
            self.dropped += 1
        self.total += 1
        return slot

    def add_row(self) -> int:
        """Grow the metric dimension by one zeroed row (new machine class)."""
        self._data = np.vstack([self._data, np.zeros((1, self._capacity))])
        return self._data.shape[0] - 1

    def column(self, slot: int) -> np.ndarray:
        return self._data[:, slot]

    def ordered(self) -> np.ndarray:
        """The stored samples, oldest first, as a ``rows x n`` copy."""
        if self.total <= self._capacity:
            return self._data[:, : self.total].copy()
        split = self.total % self._capacity
        return np.concatenate(
            [self._data[:, split:], self._data[:, :split]], axis=1
        )


@dataclass(frozen=True, eq=False)
class TelemetryRecord:
    """Frozen columnar projection of one run's telemetry.

    ``columns`` maps every name in :data:`COLUMNS` to a 1-D float64 array
    (aligned on the sample axis, ``columns["time"]`` being the sample
    times); ``class_columns`` maps :data:`CLASS_COLUMNS` names to 2-D
    ``classes x samples`` arrays whose row order follows ``class_names``.
    Host-side wall-clock artifacts only — excluded from
    :func:`~repro.runner.record.record_digest`.
    """

    interval: float
    columns: Dict[str, np.ndarray]
    class_names: Tuple[str, ...]
    class_columns: Dict[str, np.ndarray]
    histograms: Dict[str, Dict[str, Any]]
    dropped_samples: int = 0

    @property
    def samples(self) -> int:
        return int(self.columns["time"].shape[0])

    def series(self, name: str) -> np.ndarray:
        return self.columns[name]

    def class_series(self, column: str, class_name: str) -> np.ndarray:
        return self.class_columns[column][self.class_names.index(class_name)]

    # Dataclass-generated __eq__ trips over ndarray truthiness; equality is
    # exact array equality (NaNs equal), which the round-trip tests rely on.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TelemetryRecord):
            return NotImplemented
        return telemetry_records_equal(self, other)

    def to_json_dict(self) -> Dict[str, Any]:
        """Portable JSON form (NaN-safe: arrays become lists of floats)."""
        return {
            "kind": EXPORT_KIND,
            "version": EXPORT_VERSION,
            "interval": self.interval,
            "dropped_samples": self.dropped_samples,
            "columns": {k: _floats_to_json(v) for k, v in self.columns.items()},
            "class_names": list(self.class_names),
            "class_columns": {
                k: [_floats_to_json(row) for row in v]
                for k, v in self.class_columns.items()
            },
            "histograms": self.histograms,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "TelemetryRecord":
        class_names = tuple(str(n) for n in data["class_names"])
        columns = {k: _floats_from_json(v) for k, v in data["columns"].items()}
        # Zero-fill columns the document predates so old exports stay
        # loadable after the schema grows.
        for name in COLUMNS:
            if name not in columns:
                columns[name] = np.zeros_like(columns["time"])
        return cls(
            interval=float(data["interval"]),
            columns=columns,
            class_names=class_names,
            class_columns={
                k: np.array(
                    [_floats_from_json(row) for row in v], dtype=np.float64
                ).reshape(len(class_names), -1)
                for k, v in data["class_columns"].items()
            },
            histograms={
                name: dict(payload) for name, payload in data["histograms"].items()
            },
            dropped_samples=int(data.get("dropped_samples", 0)),
        )


def _floats_to_json(array: np.ndarray) -> List[Optional[float]]:
    # JSON has no NaN/inf literal; null round-trips exactly.
    return [None if not math.isfinite(v) else float(v) for v in array.tolist()]


def _floats_from_json(values: List[Optional[float]]) -> np.ndarray:
    return np.array(
        [math.nan if v is None else float(v) for v in values], dtype=np.float64
    )


def telemetry_records_equal(a: TelemetryRecord, b: TelemetryRecord) -> bool:
    """Exact equality (NaN == NaN) between two telemetry records."""
    if (
        a.interval != b.interval
        or a.dropped_samples != b.dropped_samples
        or a.class_names != b.class_names
        or set(a.columns) != set(b.columns)
        or set(a.class_columns) != set(b.class_columns)
        or a.histograms != b.histograms
    ):
        return False
    for name, array in a.columns.items():
        if not np.array_equal(array, b.columns[name], equal_nan=True):
            return False
    for name, array in a.class_columns.items():
        if not np.array_equal(array, b.class_columns[name], equal_nan=True):
            return False
    return True


class TelemetrySink:
    """Samples fleet-wide aggregates into columnar ring buffers.

    Parameters
    ----------
    cluster:
        The live cluster; every sample iterates its machines once.
    jobtracker:
        Supplies queue depths, busy slots (via its trackers), job counts,
        and stops the sampling process on shutdown.
    scheduler:
        Sampled for pheromone row stats when it exposes a ``pheromones``
        table (E-Ant); the tau columns are NaN otherwise.
    interval:
        Sampling period in simulated seconds.
    max_samples:
        Ring capacity (see :class:`TelemetryConfig`).
    tracer:
        When enabled, every sample also emits a ``metrics.snapshot``
        trace event (per-machine ``machines`` list, the sample's
        ``fleet`` columns, and ``registry``'s snapshot under
        ``metrics``) — the series ``repro report`` replays.
    registry:
        The metrics registry snapshotted into those events.
    """

    enabled = True

    def __init__(
        self,
        cluster: "Cluster",
        jobtracker: Optional["JobTracker"] = None,
        scheduler: Any = None,
        interval: float = 300.0,
        max_samples: int = 8192,
        tracer: Any = NULL_TRACER,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not (interval > 0):
            raise ValueError(f"telemetry interval must be positive, got {interval}")
        self.cluster = cluster
        self.jobtracker = jobtracker
        self.scheduler = scheduler
        self.interval = float(interval)
        self.tracer = tracer
        self.registry = registry
        self._row = {name: index for index, name in enumerate(COLUMNS)}
        self._store = _ColumnStore(len(COLUMNS), max_samples)
        #: machine model -> row index into the per-class stores
        self._class_index: Dict[str, int] = {}
        self._class_stores: Dict[str, _ColumnStore] = {}
        for machine in cluster:
            self._class_index.setdefault(machine.spec.model, len(self._class_index))
        for name in CLASS_COLUMNS:
            self._class_stores[name] = _ColumnStore(
                max(len(self._class_index), 1), max_samples
            )
        #: scratch accumulators reused across samples (no per-sample allocs)
        self._class_scratch = np.zeros((len(CLASS_COLUMNS), max(len(self._class_index), 1)))
        self.assignment_latency = Histogram(buckets=LATENCY_BUCKETS)
        self.heartbeat_batch = Histogram(buckets=BATCH_BUCKETS)
        #: per-heartbeat buffers the JobTracker appends to (drained each sample)
        self._latency_values: List[float] = []
        self._batch_values: List[int] = []

    # -------------------------------------------------------------- lifecycle
    def attach(self, sim: "Simulator", stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Start the periodic sampling process on ``sim``.

        Stops when ``stop_when`` returns True (defaults to the attached
        JobTracker's shutdown).  Like the tracer, the process consumes no
        RNG and emits no behavior-bearing events, so an instrumented run
        stays bit-identical to a bare one.
        """
        if stop_when is None:
            jobtracker = self.jobtracker
            if jobtracker is not None:
                stop_when = lambda: jobtracker.is_shutdown  # noqa: E731
            else:
                stop_when = lambda: False  # noqa: E731
        sim.process(self._run(sim, stop_when), name="telemetry-sink")

    def _run(self, sim: "Simulator", stop_when: Callable[[], bool]) -> Generator:
        while not stop_when():
            yield sim.timeout(self.interval)
            if stop_when():
                return
            self.sample(sim.now)

    # -------------------------------------------------------------- hot hooks
    def observe_heartbeat(self, latency_seconds: float, batch_size: int) -> None:
        """Buffer one timed heartbeat's assignment latency and batch size.

        Called by the JobTracker on stride-sampled heartbeats (one in
        every :data:`SAMPLE_STRIDE` — the clock reads around
        ``select_tasks`` are the expensive part, so only those
        heartbeats are timed); values sit in plain lists until
        the next :meth:`sample` drains them into the histograms in one
        vectorized ``observe_many`` pass.
        """
        self._latency_values.append(latency_seconds)
        self._batch_values.append(batch_size)

    def observe_batch(self, batch_size: int) -> None:
        """Buffer an untimed heartbeat's batch size (no clock required)."""
        self._batch_values.append(batch_size)

    # --------------------------------------------------------------- sampling
    def _class_row(self, model: str) -> int:
        index = self._class_index.get(model)
        if index is None:
            # A machine class unseen at attach time (e.g. a fault-plan join
            # of a model absent from the initial fleet): grow every rollup.
            index = len(self._class_index)
            self._class_index[model] = index
            for store in self._class_stores.values():
                store.add_row()
            self._class_scratch = np.zeros((len(CLASS_COLUMNS), index + 1))
        return index

    def sample(self, now: float) -> None:
        """Record one fleet-wide sample at simulation time ``now``.

        Read-only against the simulation: energy is read through the
        non-mutating ``projected_joules`` projection and no RNG stream is
        touched, so a traced run stays bit-identical to an untraced one.
        """
        jobtracker = self.jobtracker
        trackers = jobtracker.trackers if jobtracker is not None else {}
        # Register unseen machine classes *before* taking scratch views:
        # _class_row rebinds the scratch array when it grows.
        class_index = self._class_index
        for machine in self.cluster:
            if machine.spec.model not in class_index:
                self._class_row(machine.spec.model)
        scratch = self._class_scratch
        scratch[:] = 0.0
        in_service_row, busy_map_row, busy_reduce_row, power_row = scratch
        active = decommissioned = 0
        total_map = total_reduce = 0
        power_total = 0.0
        joules_total = 0.0
        tracer = self.tracer
        machines: Optional[List[Dict[str, Any]]] = [] if tracer.enabled else None
        for machine in self.cluster:
            model = machine.spec.model
            model_index = class_index[model]
            power = machine.power_watts()
            power_total += power
            power_row[model_index] += power
            joules = machine.energy.projected_joules(now)
            joules_total += joules
            if machines is not None:
                machines.append(
                    {
                        "id": machine.machine_id,
                        "host": machine.hostname,
                        "model": model,
                        "util": machine.utilization,
                        "power_w": power,
                        "joules": joules,
                    }
                )
            if machine.decommissioned:
                decommissioned += 1
                continue
            active += 1
            in_service_row[model_index] += 1.0
            total_map += machine.spec.map_slots
            total_reduce += machine.spec.reduce_slots
            tracker = trackers.get(machine.machine_id)
            if tracker is not None:
                busy_map_row[model_index] += tracker.running_maps
                busy_reduce_row[model_index] += tracker.running_reduces

        busy_maps = float(busy_map_row.sum())
        busy_reduces = float(busy_reduce_row.sum())

        pending_maps = pending_reduces = 0
        active_jobs = completed_jobs = submitted_jobs = 0
        if jobtracker is not None:
            for job in jobtracker.active_jobs:
                pending_maps += job.pending_map_count
                pending_reduces += job.pending_reduce_count
            active_jobs = len(jobtracker.active_jobs)
            completed_jobs = len(jobtracker.completed_jobs)
            # Admissions so far — under open-loop overload the gap between
            # this curve and completed_jobs is the growing backlog.
            submitted_jobs = len(jobtracker.jobs)

        tau_min = tau_mean = tau_max = math.nan
        table = getattr(self.scheduler, "pheromones", None)
        rows = getattr(table, "_tau", None)
        if rows:
            lo = math.inf
            hi = -math.inf
            total = 0.0
            count = 0
            for row in rows.values():
                if row.size == 0:
                    continue
                lo = min(lo, float(row.min()))
                hi = max(hi, float(row.max()))
                total += float(row.sum())
                count += row.size
            if count:
                tau_min, tau_mean, tau_max = lo, total / count, hi

        # Drain the per-heartbeat buffers in one vectorized pass.
        if self._latency_values:
            self.assignment_latency.observe_many(self._latency_values)
            self.heartbeat_batch.observe_many(self._batch_values)
            self._latency_values.clear()
            self._batch_values.clear()

        slot = self._store.append_slot()
        column = self._store.column(slot)
        row = self._row
        column[row["time"]] = now
        column[row["active_machines"]] = active
        column[row["decommissioned_machines"]] = decommissioned
        column[row["busy_map_slots"]] = busy_maps
        column[row["busy_reduce_slots"]] = busy_reduces
        column[row["total_map_slots"]] = total_map
        column[row["total_reduce_slots"]] = total_reduce
        column[row["power_watts"]] = power_total
        column[row["energy_joules"]] = joules_total
        column[row["pending_maps"]] = pending_maps
        column[row["pending_reduces"]] = pending_reduces
        column[row["running_maps"]] = busy_maps
        column[row["running_reduces"]] = busy_reduces
        column[row["active_jobs"]] = active_jobs
        column[row["completed_jobs"]] = completed_jobs
        column[row["submitted_jobs"]] = submitted_jobs
        column[row["tau_min"]] = tau_min
        column[row["tau_mean"]] = tau_mean
        column[row["tau_max"]] = tau_max

        for name, values in zip(CLASS_COLUMNS, scratch):
            store = self._class_stores[name]
            store.column(store.append_slot())[: values.shape[0]] = values

        if machines is not None:
            tracer.emit(
                EventType.METRICS_SNAPSHOT,
                now,
                machines=machines,
                fleet=dict(zip(COLUMNS[1:], _floats_to_json(column[1:]))),
                metrics=self.registry.snapshot() if self.registry is not None else {},
            )

    # ----------------------------------------------------------------- export
    @property
    def samples(self) -> int:
        """Samples currently stored (appended minus dropped)."""
        return self._store.total - self._store.dropped

    @property
    def dropped_samples(self) -> int:
        return self._store.dropped

    def record(self) -> TelemetryRecord:
        """Freeze the sampled series into a portable record.

        Any still-buffered heartbeat observations are folded into the
        histograms first, so a record taken right after run completion
        loses nothing.
        """
        if self._latency_values:
            self.assignment_latency.observe_many(self._latency_values)
            self.heartbeat_batch.observe_many(self._batch_values)
            self._latency_values.clear()
            self._batch_values.clear()
        data = self._store.ordered()
        columns = {name: data[self._row[name]] for name in COLUMNS}
        class_names = tuple(
            sorted(self._class_index, key=self._class_index.__getitem__)
        )
        class_columns = {
            name: self._class_stores[name].ordered()[: max(len(class_names), 1)]
            for name in CLASS_COLUMNS
        }
        return TelemetryRecord(
            interval=self.interval,
            columns=columns,
            class_names=class_names,
            class_columns=class_columns,
            histograms={
                "assignment_latency_seconds": self.assignment_latency.to_data(),
                "heartbeat_batch_size": self.heartbeat_batch.to_data(),
            },
            dropped_samples=self._store.dropped,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetrySink interval={self.interval:g}s samples={self.samples} "
            f"classes={len(self._class_index)}>"
        )


# ------------------------------------------------------------------ exporters
def write_telemetry_npz(
    path: Union[str, Path],
    telemetry: Optional[TelemetryRecord] = None,
    profile: Optional[ProfileRecord] = None,
) -> None:
    """Write telemetry/profile records to an ``.npz`` archive.

    Columns are stored as native float64 arrays under ``col_<name>`` /
    ``cls_<name>`` keys; everything non-columnar (interval, class names,
    histograms, the profile table) travels as one JSON string under
    ``meta`` — so the archive is both compact and self-describing.
    """
    if telemetry is None and profile is None:
        raise ValueError("nothing to export: both telemetry and profile are None")
    meta: Dict[str, Any] = {"kind": EXPORT_KIND, "version": EXPORT_VERSION}
    payload: Dict[str, np.ndarray] = {}
    if telemetry is not None:
        meta["telemetry"] = {
            "interval": telemetry.interval,
            "dropped_samples": telemetry.dropped_samples,
            "class_names": list(telemetry.class_names),
            "histograms": telemetry.histograms,
        }
        for name, array in telemetry.columns.items():
            payload[f"col_{name}"] = array
        for name, array in telemetry.class_columns.items():
            payload[f"cls_{name}"] = array
    if profile is not None:
        meta["profile"] = profile.to_json_dict()
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **payload)


def read_telemetry_npz(
    path: Union[str, Path],
) -> Tuple[Optional[TelemetryRecord], Optional[ProfileRecord]]:
    """Load an archive written by :func:`write_telemetry_npz`.

    Raises ``ValueError`` when the file is not an archive, the archive is
    not an export, or a section has the wrong shape.
    """
    # The handle is ours, so it closes even when numpy rejects the bytes.
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
        except (BadZipFile, EOFError, ValueError) as error:
            # A damaged or truncated zip, an empty file, or other bytes
            # that numpy takes for a pickle.
            raise ValueError(f"{path}: not a telemetry export ({error})") from None
        if not isinstance(archive, NpzFile):
            raise ValueError(f"{path}: not a telemetry export (a single .npy array)")
        with archive, _export_shape(path):
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
            if meta.get("kind") != EXPORT_KIND:
                raise ValueError(f"{path}: not a telemetry export")
            telemetry: Optional[TelemetryRecord] = None
            if "telemetry" in meta:
                info = meta["telemetry"]
                class_names = tuple(str(n) for n in info["class_names"])
                times = archive["col_time"]
                telemetry = TelemetryRecord(
                    interval=float(info["interval"]),
                    # Zero-fill columns the archive predates (exports written
                    # before a column was added stay loadable).
                    columns={
                        name: (
                            archive[f"col_{name}"]
                            if f"col_{name}" in archive
                            else np.zeros_like(times)
                        )
                        for name in COLUMNS
                    },
                    class_names=class_names,
                    class_columns={
                        name: archive[f"cls_{name}"] for name in CLASS_COLUMNS
                    },
                    histograms={
                        name: dict(payload)
                        for name, payload in info["histograms"].items()
                    },
                    dropped_samples=int(info["dropped_samples"]),
                )
            profile: Optional[ProfileRecord] = None
            if "profile" in meta:
                profile = ProfileRecord.from_json_dict(meta["profile"])
    return telemetry, profile


def write_telemetry_json(
    path: Union[str, Path],
    telemetry: Optional[TelemetryRecord] = None,
    profile: Optional[ProfileRecord] = None,
) -> None:
    """Write telemetry/profile records as one portable JSON document."""
    if telemetry is None and profile is None:
        raise ValueError("nothing to export: both telemetry and profile are None")
    document: Dict[str, Any] = {"kind": EXPORT_KIND, "version": EXPORT_VERSION}
    if telemetry is not None:
        document["telemetry"] = telemetry.to_json_dict()
    if profile is not None:
        document["profile"] = profile.to_json_dict()
    Path(path).write_text(
        json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def read_telemetry_json(
    path: Union[str, Path],
) -> Tuple[Optional[TelemetryRecord], Optional[ProfileRecord]]:
    """Load a document written by :func:`write_telemetry_json`.

    Raises ``ValueError`` when the document is not an export or a section
    has the wrong shape.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or document.get("kind") != EXPORT_KIND:
        raise ValueError(f"{path}: not a telemetry export")
    with _export_shape(path):
        telemetry = (
            TelemetryRecord.from_json_dict(document["telemetry"])
            if "telemetry" in document
            else None
        )
        profile = (
            ProfileRecord.from_json_dict(document["profile"])
            if "profile" in document
            else None
        )
    return telemetry, profile


@contextmanager
def _export_shape(path: Union[str, Path]) -> Iterator[None]:
    """Report a wrong-shaped export section (a ``null`` where a mapping
    belongs, a missing key) or a damaged archive member as ``ValueError``,
    the readers' one error."""
    try:
        yield
    except (AttributeError, BadZipFile, IndexError, KeyError, TypeError) as error:
        raise ValueError(
            f"{path}: malformed telemetry export "
            f"({type(error).__name__}: {error})"
        ) from None
