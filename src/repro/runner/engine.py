"""The scenario execution engine.

:func:`execute_spec` wires simulator + cluster + HDFS + TaskTrackers +
JobTracker + scheduler + workload submission from one declarative
:class:`~repro.runner.spec.ScenarioSpec`, runs to completion, and returns a
:class:`ScenarioResult` holding the live objects of the finished run.

Runtime-only concerns that deliberately stay *out* of the spec (they are
either observational or not declaratively serializable) are passed as
keyword arguments: a trace sink, per-job placement overrides, a custom
network fabric, and a scheduler *factory* for ad-hoc policies.

Scheduler identity is normally carried by *name* (``"fifo" | "fair" |
"tarazu" | "late" | "e-ant"``); runs with different schedulers but the same
seed see identical workloads, block placements, and noise draws (common
random numbers via named RNG streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..cluster import Cluster, Network
from ..core import EAntConfig, EAntScheduler
from ..core.floatsum import left_sum
from ..energy import ClusterMeter, wasted_energy_breakdown
from ..faults import FaultInjector
from ..hadoop import BlockPlacer, JobTracker, TaskTracker
from ..metrics import MetricsCollector, RunMetrics, build_job_results
from ..observability import (
    NULL_TRACER,
    EventType,
    MetricsRegistry,
    TelemetryConfig,
    TelemetrySink,
    Tracer,
    write_jsonl,
)
from ..schedulers import (
    CapacityScheduler,
    CoveringSubsetScheduler,
    FairScheduler,
    FifoScheduler,
    LateScheduler,
    Scheduler,
    TarazuScheduler,
)
from ..simulation import RandomStreams, Simulator
from .record import BacklogRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports us)
    from .spec import ScenarioSpec

__all__ = ["ScenarioResult", "execute_spec", "make_scheduler", "SCHEDULER_NAMES"]

SchedulerFactory = Callable[[RandomStreams], Scheduler]

SCHEDULER_NAMES = ("fifo", "fair", "capacity", "tarazu", "late", "covering-subset", "e-ant")


def make_scheduler(
    name: str,
    streams: RandomStreams,
    eant_config: Optional[EAntConfig] = None,
) -> Scheduler:
    """Instantiate a scheduler by name with its own RNG stream."""
    key = name.strip().lower()
    if key == "fifo":
        return FifoScheduler()
    if key == "fair":
        return FairScheduler()
    if key == "capacity":
        return CapacityScheduler()
    if key == "covering-subset":
        return CoveringSubsetScheduler()
    if key == "tarazu":
        return TarazuScheduler()
    if key == "late":
        return LateScheduler()
    if key in ("e-ant", "eant"):
        return EAntScheduler(
            config=eant_config or EAntConfig(),
            rng=streams.stream("eant"),
        )
    raise ValueError(f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}")


@dataclass
class ScenarioResult:
    """Everything observable from one run."""

    metrics: RunMetrics
    scheduler: Scheduler
    jobtracker: JobTracker
    cluster: Cluster
    meter: Optional[ClusterMeter] = None
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    injector: Optional[FaultInjector] = None
    telemetry: Optional[TelemetrySink] = None
    #: Open-loop admission/backlog accounting (None on closed-loop runs)
    backlog: Optional[BacklogRecord] = None

    @property
    def eant(self) -> EAntScheduler:
        """The scheduler, asserted to be E-Ant (adaptiveness experiments)."""
        if not isinstance(self.scheduler, EAntScheduler):
            raise TypeError(f"scheduler is {self.scheduler.name!r}, not e-ant")
        return self.scheduler


def execute_spec(
    spec: "ScenarioSpec",
    *,
    trace: Union[None, str, Path, Tracer] = None,
    telemetry: Union[None, bool, int, float, TelemetryConfig] = None,
    placements: Optional[Dict[int, List[Tuple[int, ...]]]] = None,
    network: Optional[Network] = None,
    scheduler_factory: Optional[SchedulerFactory] = None,
) -> ScenarioResult:
    """Run one complete scenario described by ``spec``.

    Parameters
    ----------
    spec:
        The declarative run description (workload, scheduler, fleet,
        Hadoop config, noise, seed, metering).
    trace:
        ``None`` (default) runs fully uninstrumented — every trace hook
        stays on the :data:`~repro.observability.NULL_TRACER` no-op path.
        A path writes a JSONL trace there on completion; a
        :class:`~repro.observability.Tracer` collects events in memory.
        Either way a :class:`~repro.observability.MetricsRegistry` is
        attached and a :class:`~repro.observability.TelemetrySink` emits
        periodic ``metrics.snapshot`` events every ``spec.meter_interval``
        simulated seconds.
    telemetry:
        ``None``/``False`` (default) runs without the columnar telemetry
        layer.  ``True`` attaches a
        :class:`~repro.observability.TelemetrySink` sampling fleet-wide
        aggregates once per control interval; a number overrides the
        sampling interval (simulated seconds); a
        :class:`~repro.observability.TelemetryConfig` sets everything
        explicitly.  Like tracing, telemetry is pure observation — it
        consumes no RNG and the run's digest is bit-identical with it
        on, off, or at any interval.  Host time is not measured here:
        wrap the call in :func:`~repro.observability.profile_layers`.
    placements:
        Optional per-job replica overrides: index in the submitted job
        list -> replica host tuples (locality experiments).
    network:
        Custom network fabric (e.g. a blocking switch for the locality
        experiment); defaults to non-blocking Gigabit Ethernet.
    scheduler_factory:
        A ``streams -> Scheduler`` factory overriding ``spec.scheduler``
        (custom-policy experiments; such runs are not cacheable).
    """
    ordered = sorted(spec.jobs, key=lambda j: j.submit_time)
    if not ordered:
        raise ValueError("scenario needs at least one job")

    sim = Simulator()
    streams = RandomStreams(spec.seed)
    cluster = Cluster(sim, list(spec.fleet), network or Network())
    config = spec.hadoop
    placer = BlockPlacer(cluster, config.replication, streams.stream("hdfs"))

    if scheduler_factory is not None:
        policy = scheduler_factory(streams)
    else:
        policy = make_scheduler(spec.scheduler, streams, spec.eant_config)

    # Tracing is pure observation: it consumes no RNG and schedules no
    # behavior-bearing events, so a traced run is bit-identical to an
    # untraced one with the same seed.
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    trace_path: Optional[Path] = None
    if trace is not None:
        if isinstance(trace, Tracer):
            tracer = trace
        else:
            tracer = Tracer()
            trace_path = Path(trace)
            # Fail fast on an unwritable destination, not after the run.
            trace_path.touch()
        registry = MetricsRegistry()
        sim.tracer = tracer

    # Telemetry follows the same contract: sampling consumes no RNG, reads
    # energy through non-mutating projections, and schedules only its own
    # digest-neutral timeout events.
    telemetry_config = TelemetryConfig.coerce(telemetry)

    jobtracker = JobTracker(
        sim,
        cluster,
        config,
        policy,
        placer,
        skew_noise=spec.noise,
        rng=streams.stream("skew"),
        tracer=tracer if tracer is not None else NULL_TRACER,
        registry=registry,
    )
    jobtracker.expect_jobs(len(ordered))

    collector = MetricsCollector(cluster)
    jobtracker.add_report_listener(collector.on_report)

    trackers: List[TaskTracker] = []
    for machine in cluster:
        tracker = TaskTracker(
            sim,
            machine,
            config,
            noise=spec.noise,
            rng=streams.stream(f"tt-{machine.machine_id}"),
        )
        tracker.start(jobtracker)
        trackers.append(tracker)

    sink: Optional[TelemetrySink] = None
    if telemetry_config is not None:
        sink = TelemetrySink(
            cluster,
            jobtracker=jobtracker,
            scheduler=policy,
            interval=(
                telemetry_config.interval
                if telemetry_config.interval is not None
                else config.control_interval
            ),
            max_samples=telemetry_config.max_samples,
        )
        jobtracker.attach_telemetry(sink)
        sink.attach(sim)

    injector: Optional[FaultInjector] = None
    if spec.faults is not None:
        injector = FaultInjector(
            plan=spec.faults,
            sim=sim,
            cluster=cluster,
            jobtracker=jobtracker,
            config=config,
            streams=streams,
            trackers=trackers,
            noise=spec.noise,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
        injector.attach()

    meter: Optional[ClusterMeter] = None
    if spec.with_meter:
        meter = ClusterMeter(cluster, sample_interval=spec.meter_interval)
        meter.attach(sim, stop_when=lambda: jobtracker.is_shutdown)

    trace_sink: Optional[TelemetrySink] = None
    if tracer is not None:
        models: Dict[str, int] = {}
        for machine in cluster:
            models[machine.spec.model] = models.get(machine.spec.model, 0) + 1
        tracer.emit(
            EventType.HEADER,
            0.0,
            scheduler=policy.name,
            seed=spec.seed,
            jobs=len(ordered),
            machines=len(cluster),
            fleet=models,
            heartbeat_interval=config.heartbeat_interval,
            control_interval=config.control_interval,
            snapshot_interval=spec.meter_interval,
        )
        # The trace's snapshot series comes from its own sink at the meter
        # interval, independent of any telemetry= sink and its interval.
        trace_sink = TelemetrySink(
            cluster,
            jobtracker=jobtracker,
            scheduler=policy,
            interval=spec.meter_interval,
            tracer=tracer,
            registry=registry,
        )
        trace_sink.attach(sim)

    def submit_all():
        for index, job_spec in enumerate(ordered):
            if job_spec.submit_time > sim.now:
                yield sim.timeout(job_spec.submit_time - sim.now)
            if jobtracker.is_shutdown:
                # Open-loop horizon hit: the rest of the offered stream
                # never enters the system (counted as not-admitted).
                return
            override = placements.get(index) if placements else None
            jobtracker.submit(job_spec, replica_hosts=override)

    sim.process(submit_all(), name="job-submitter")

    if spec.open_loop:
        # Open-loop overload mode: the run is cut at the horizon whether or
        # not the workload drained.  shutdown() is idempotent, so a
        # workload that *does* drain first ends early exactly as a
        # closed-loop run would.
        def stop_at_horizon():
            yield sim.timeout(spec.horizon)
            jobtracker.shutdown()

        sim.process(stop_at_horizon(), name="open-loop-horizon")

    # Snapshot energy at the instant the workload completes, so trailing
    # heartbeat ticks do not blur the comparison between schedulers.
    snapshot: Dict[str, object] = {}

    def on_all_done(_event):
        cluster.finish_energy_accounting()
        snapshot["energy_by_type"] = cluster.energy_by_type()
        snapshot["idle"] = left_sum(m.energy.idle_joules for m in cluster)
        snapshot["dynamic"] = left_sum(m.energy.dynamic_joules for m in cluster)
        snapshot["utilization_by_type"] = cluster.utilization_by_type()
        snapshot["makespan"] = sim.now
        if spec.open_loop:
            # Backlog counters are taken at the cut instant: in-flight
            # attempts may still complete afterwards while the simulator
            # drains, and those must not blur the at-horizon picture.
            admitted = len(jobtracker.jobs)
            completed = len(jobtracker.completed_jobs)
            snapshot["backlog"] = BacklogRecord(
                horizon=float(spec.horizon),
                jobs_offered=len(ordered),
                jobs_admitted=admitted,
                jobs_completed=completed,
                jobs_unfinished=admitted - completed,
                jobs_not_admitted=len(ordered) - admitted,
                tasks_completed=len(jobtracker.reports),
                maps_pending=sum(
                    job.pending_map_count for job in jobtracker.active_jobs
                ),
                reduces_pending=sum(
                    job.pending_reduce_count for job in jobtracker.active_jobs
                ),
            )

    jobtracker.all_done_event.add_callback(on_all_done)
    # Close each sampled series at the same instant, so its last sample is
    # the completed workload, not a later periodic tick (in event order —
    # trailing heartbeats may still tick afterwards).
    for closing in (trace_sink, sink):
        if closing is not None:
            jobtracker.all_done_event.add_callback(
                lambda _e, closing=closing: closing.sample(sim.now)
            )

    sim.run(until=spec.max_sim_time)
    if "makespan" not in snapshot:
        raise RuntimeError(
            f"scenario did not complete within {spec.max_sim_time} simulated seconds "
            f"({len(jobtracker.completed_jobs)}/{len(ordered)} jobs done)"
        )

    # Killed attempts exist without faults too (speculative duplicates),
    # so the waste accounting runs unconditionally.
    reexecuted, wasted_joules, _ = wasted_energy_breakdown(jobtracker, cluster)

    energy_by_type: Dict[str, float] = snapshot["energy_by_type"]  # type: ignore[assignment]
    metrics = RunMetrics(
        scheduler_name=policy.name,
        seed=spec.seed,
        makespan=float(snapshot["makespan"]),  # type: ignore[arg-type]
        total_energy_joules=left_sum(energy_by_type.values()),
        energy_by_type=energy_by_type,
        idle_energy_joules=float(snapshot["idle"]),  # type: ignore[arg-type]
        dynamic_energy_joules=float(snapshot["dynamic"]),  # type: ignore[arg-type]
        utilization_by_type=snapshot["utilization_by_type"],  # type: ignore[assignment]
        job_results=build_job_results(jobtracker, cluster, config),
        collector=collector,
        reexecuted_tasks=reexecuted,
        wasted_energy_joules=wasted_joules,
    )
    if tracer is not None and trace_path is not None:
        write_jsonl(tracer, trace_path)
    return ScenarioResult(
        metrics=metrics,
        scheduler=policy,
        jobtracker=jobtracker,
        cluster=cluster,
        meter=meter,
        tracer=tracer,
        registry=registry,
        injector=injector,
        telemetry=sink,
        backlog=snapshot.get("backlog"),  # type: ignore[arg-type]
    )
