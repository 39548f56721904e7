"""Standard experiment scenarios shared by the figure harnesses.

Each function returns the ingredients for :func:`repro.experiments.run_scenario`
so that every figure regenerates from the same operating points:

* :func:`msd_scenario` — the Section V-C workload on the Section V-B fleet,
  at the load level where the cluster sustains multi-job contention
  (the Fig. 8/9/10/12 operating point).
* :func:`motivation_rig` — a single-machine open-loop rig for the
  Section II case study (Fig. 1), where tasks arrive at a controlled rate.
* :func:`exchange_workload` — a stream of same-sized jobs with adjustable
  application mix, used by the exchange and convergence experiments.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..cluster import MachineSpec, procedural_fleet
from ..hadoop import HadoopConfig
from ..noise import DEFAULT_NOISE, NoiseModel
from ..runner import ScenarioSpec
from ..simulation import RandomStreams
from ..workloads import (
    DiurnalProcess,
    JobSpec,
    MSDConfig,
    TraceSpec,
    WorkloadProfile,
    generate_msd_workload,
    render_trace,
    uniform_job_stream,
)
from ..workloads.traces import poisson_process_times

__all__ = [
    "msd_scenario",
    "motivation_rig",
    "open_loop_jobs",
    "exchange_workload",
    "large_fleet_spec",
    "trace_driven_spec",
    "diurnal_trace",
    "diurnal_overload_spec",
    "MOTIVATION_TASK_SCALE",
]

#: The Section II rig uses lighter tasks than the PUMA jobs (smaller splits),
#: calibrated so the Fig. 1(a) efficiency crossover lands near the paper's
#: 12 tasks/min.
MOTIVATION_TASK_SCALE = 0.6


def msd_scenario(
    seed: int = 3,
    n_jobs: int = 87,
    mean_interarrival_s: float = 30.0,
    max_maps: int = 400,
) -> Tuple[List[JobSpec], HadoopConfig]:
    """The headline evaluation workload (Figs. 8, 9, 12)."""
    config = MSDConfig(
        n_jobs=n_jobs,
        mean_interarrival_s=mean_interarrival_s,
        max_maps=max_maps,
        seed_label=f"msd{seed}",
    )
    jobs = generate_msd_workload(config=config, streams=RandomStreams(seed))
    return jobs, HadoopConfig()


def motivation_rig(
    spec: MachineSpec,
    map_slots: int = 6,
) -> List[Tuple[MachineSpec, int]]:
    """A one-machine fleet for the open-loop Section II experiments.

    The rig exposes ``map_slots`` map slots (the case study predates the
    Section V-B slot config, and saturating the machine needs more than 4)
    and no reduce slots.
    """
    return [(spec.with_slots(map_slots, 0), 1)]


def open_loop_jobs(
    profile: WorkloadProfile,
    rate_per_min: float,
    duration_s: float,
    streams: RandomStreams,
    block_mb: float = 64.0,
    label: str = "arrivals",
) -> List[JobSpec]:
    """Single-map jobs arriving at a Poisson rate (one task per job).

    This realizes the paper's "task submission rate" on a machine: each
    arrival is an independent map task with one block of input.
    """
    scaled = profile.scaled(MOTIVATION_TASK_SCALE)
    times = poisson_process_times(
        rate_per_min / 60.0, duration_s, streams.stream(label)
    )
    return [
        JobSpec(
            profile=scaled,
            input_mb=block_mb,
            num_reduces=0,
            submit_time=t,
            name=f"{profile.name}-task{i:05d}",
        )
        for i, t in enumerate(times)
    ]


def exchange_workload(
    streams: RandomStreams,
    applications: Sequence[str] = ("wordcount", "grep", "terasort"),
    jobs_per_app: int = 8,
    input_gb: float = 4.0,
    mean_interarrival_s: float = 45.0,
) -> List[JobSpec]:
    """Equal-sized job stream for the exchange/convergence experiments."""
    return uniform_job_stream(
        applications=applications,
        jobs_per_app=jobs_per_app,
        input_gb=input_gb,
        mean_interarrival_s=mean_interarrival_s,
        rng=streams.stream("exchange-jobs"),
    )


def large_fleet_spec(
    n_nodes: int = 1000,
    target_tasks: int = 100_000,
    seed: int = 0,
    scheduler: str = "e-ant",
    fleet_seed: int = 0,
    mean_interarrival_s: float = 5.0,
) -> ScenarioSpec:
    """A datacenter-scale scenario on a procedurally generated fleet.

    Scales the paper's operating point up to ``n_nodes`` machines (same
    heterogeneity mix, via :func:`~repro.cluster.catalog.procedural_fleet`)
    running a PUMA job stream sized so the total task count — maps plus
    reduces, at the usual 8:1 ratio — lands on ``target_tasks``.  Job count
    grows with the fleet (one job per ~10 nodes, at least one per
    application) so per-job parallelism stays datacenter-shaped rather
    than one colossal job.

    Everything is deterministic in the arguments, so the returned spec's
    :meth:`~repro.runner.spec.ScenarioSpec.spec_hash` is stable: sweeps,
    the result cache, and the large-fleet benchmark all key off it.
    """
    if n_nodes < 1:
        raise ValueError("fleet needs at least one node")
    if target_tasks < 1:
        raise ValueError("target_tasks must be positive")
    applications = ("wordcount", "grep", "terasort")
    jobs_per_app = max(1, n_nodes // (10 * len(applications)))
    n_jobs = jobs_per_app * len(applications)
    # tasks/job = maps * 9/8 (uniform_job_stream gives reduces = maps/8),
    # and maps = input_gb * 16 at the 64 MB block size.
    maps_per_job = max(1, round(target_tasks / n_jobs * 8.0 / 9.0))
    input_gb = maps_per_job * 64.0 / 1024.0
    jobs = uniform_job_stream(
        applications=applications,
        jobs_per_app=jobs_per_app,
        input_gb=input_gb,
        mean_interarrival_s=mean_interarrival_s,
        rng=RandomStreams(seed).stream("large-fleet-jobs"),
    )
    return ScenarioSpec(
        jobs=tuple(jobs),
        scheduler=scheduler,
        fleet=tuple(procedural_fleet(n_nodes, seed=fleet_seed)),
        seed=seed,
        label=f"large-fleet-{n_nodes}x{target_tasks}",
    )


def trace_driven_spec(
    trace: TraceSpec,
    scheduler: str = "e-ant",
    seed: int = 0,
    *,
    open_loop: bool = False,
    horizon: Optional[float] = None,
    with_meter: bool = False,
    **fields,
) -> ScenarioSpec:
    """A :class:`ScenarioSpec` driven by a loaded or rendered trace.

    Thin, named wrapper over :meth:`ScenarioSpec.from_trace` so figure
    harnesses and the CLI build trace-driven runs through one door.  The
    trace's content digest is folded into the spec identity, so sweeps
    over (scheduler x seed) grids on the same trace cache exactly like
    synthetic scenarios.
    """
    return ScenarioSpec.from_trace(
        trace,
        scheduler=scheduler,
        seed=seed,
        open_loop=open_loop,
        horizon=horizon,
        with_meter=with_meter,
        **fields,
    )


def diurnal_trace(
    seed: int = 0,
    *,
    base_rate_per_s: float = 0.05,
    period_s: float = 3_600.0,
    days: float = 2.0,
    amplitude: float = 0.8,
    name: str = "diurnal",
    task_counts: Sequence[int] = (4, 8, 16),
) -> TraceSpec:
    """The standard rendered diurnal workload (compressed day).

    One "day" is compressed to ``period_s`` simulated seconds so a
    multi-day curve stays cheap to simulate; the trough/rise/peak/fall
    structure per period is what the diurnal figure windows over.
    """
    process = DiurnalProcess(
        base_rate_per_s=base_rate_per_s,
        amplitude=amplitude,
        period_s=period_s,
    )
    return render_trace(
        process,
        duration_s=days * period_s,
        name=name,
        seed=seed,
        task_counts=task_counts,
    )


def diurnal_overload_spec(
    n_nodes: int = 1000,
    seed: int = 0,
    scheduler: str = "e-ant",
    *,
    fleet_seed: int = 0,
    period_s: float = 3_600.0,
    days: float = 1.0,
    rate_scale: float = 0.12,
    task_counts: Sequence[int] = (8, 16, 32),
) -> ScenarioSpec:
    """A fleet-scale open-loop diurnal scenario ("millions of users").

    Renders a diurnal trace whose mean arrival rate scales with the fleet
    (``rate_scale`` jobs/second per 100 nodes) — sized so the peak phase
    offers work faster than the fleet drains it — and cuts the run at the
    end of the last rendered day.  Backlog/admission accounting lands in
    ``RunRecord.backlog``; pair with ``telemetry=True`` at execution time
    for the per-interval queue-depth series.
    """
    if n_nodes < 1:
        raise ValueError("fleet needs at least one node")
    horizon = days * period_s
    trace = diurnal_trace(
        seed=seed,
        base_rate_per_s=rate_scale * n_nodes / 100.0,
        period_s=period_s,
        days=days,
        name=f"diurnal-{n_nodes}n",
        task_counts=task_counts,
    )
    return ScenarioSpec.from_trace(
        trace,
        scheduler=scheduler,
        seed=seed,
        fleet=tuple(procedural_fleet(n_nodes, seed=fleet_seed)),
        open_loop=True,
        horizon=horizon,
        label=f"diurnal-overload-{n_nodes}n",
    )


def noisy_model(intensity: float = 2.0, base: Optional[NoiseModel] = None) -> NoiseModel:
    """A noise model scaled up from the default (Figs. 7, 10, 11)."""
    return (base or DEFAULT_NOISE).scaled(intensity)
