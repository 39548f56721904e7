"""E-Ant: energy-efficient adaptive task assignment for heterogeneous
Hadoop clusters — a full reproduction of Cheng et al., ICDCS 2015.

The library has three layers:

* **Substrates** — a discrete-event simulation kernel
  (:mod:`repro.simulation`), a heterogeneous cluster with calibrated power
  models (:mod:`repro.cluster`), a Hadoop 1.x MapReduce model
  (:mod:`repro.hadoop`), workload generators (:mod:`repro.workloads`),
  energy metering and the Eq. 2 task-energy model (:mod:`repro.energy`),
  and noise injection (:mod:`repro.noise`).
* **The contribution** — the E-Ant ACO scheduler (:mod:`repro.core`) and
  the baseline schedulers it is compared against
  (:mod:`repro.schedulers`: FIFO, Fair, Tarazu, LATE).
* **Evaluation** — metrics (:mod:`repro.metrics`), structured tracing and
  telemetry (:mod:`repro.observability`), fault injection and cluster
  dynamics (:mod:`repro.faults`), and one harness per paper figure/table
  (:mod:`repro.experiments`).

Quickstart::

    from repro import run_msd_comparison
    result = run_msd_comparison(seed=7)
    print(result.summary())
"""

__version__ = "1.0.0"

from .cluster import Cluster, MachineSpec, PowerModel, paper_fleet
from .core import (
    AssignmentResponse,
    EAntConfig,
    EAntScheduler,
    ExchangeLevel,
    HeartbeatRequest,
    LocalSchedulerCore,
    TaskDirective,
    TrackerInfo,
    WireError,
)
from .experiments import figure_result, run_msd_comparison, run_scenario
from .faults import FaultEvent, FaultPlan
from .hadoop import HadoopConfig
from .noise import DEFAULT_NOISE, NO_NOISE, NoiseModel
from .observability import (
    MetricsRegistry,
    TelemetryConfig,
    TelemetryRecord,
    TelemetrySink,
    Tracer,
)
from .runner import (
    BacklogRecord,
    ResultSpool,
    ScenarioResult,
    ScenarioSpec,
    ShardManifest,
    SweepAggregate,
    SweepRunner,
    execute_spec,
    merge_spools,
    shard_specs,
)
from .schedulers import FairScheduler, FifoScheduler, LateScheduler, Scheduler, TarazuScheduler
from .simulation import RandomStreams, Simulator
from .workloads import (
    GREP,
    PUMA,
    TERASORT,
    WORDCOUNT,
    BurstyProcess,
    DiurnalProcess,
    FlashCrowdProcess,
    JobSpec,
    MSDConfig,
    TraceError,
    TraceJob,
    TraceRef,
    TraceSpec,
    WorkloadProfile,
    generate_msd_workload,
    load_trace,
    make_process,
    puma_job,
    render_trace,
    write_trace,
)

#: The supported public surface.  Anything importable but not listed here
#: is an internal detail that may change without a deprecation cycle;
#: everything listed is covered by the deprecation policy described in
#: ``docs/api.md``.
__all__ = [
    "__version__",
    # substrates
    "Simulator",
    "RandomStreams",
    "Cluster",
    "MachineSpec",
    "PowerModel",
    "paper_fleet",
    "HadoopConfig",
    # workloads
    "JobSpec",
    "WorkloadProfile",
    "WORDCOUNT",
    "GREP",
    "TERASORT",
    "PUMA",
    "puma_job",
    "MSDConfig",
    "generate_msd_workload",
    # workload traces (trace-driven frontend)
    "TraceJob",
    "TraceSpec",
    "TraceRef",
    "TraceError",
    "load_trace",
    "write_trace",
    "render_trace",
    "make_process",
    "DiurnalProcess",
    "BurstyProcess",
    "FlashCrowdProcess",
    # noise
    "NoiseModel",
    "NO_NOISE",
    "DEFAULT_NOISE",
    # schedulers
    "Scheduler",
    "FifoScheduler",
    "FairScheduler",
    "TarazuScheduler",
    "LateScheduler",
    "EAntScheduler",
    "EAntConfig",
    "ExchangeLevel",
    # the scheduler service core (transport-agnostic seam)
    "LocalSchedulerCore",
    "TrackerInfo",
    "HeartbeatRequest",
    "TaskDirective",
    "AssignmentResponse",
    "WireError",
    # declarative runner
    "ScenarioSpec",
    "ScenarioResult",
    "BacklogRecord",
    "execute_spec",
    "SweepRunner",
    # sharded, resumable sweeps
    "ShardManifest",
    "shard_specs",
    "ResultSpool",
    "SweepAggregate",
    "merge_spools",
    # faults / observability
    "FaultEvent",
    "FaultPlan",
    "Tracer",
    "MetricsRegistry",
    "TelemetryConfig",
    "TelemetrySink",
    "TelemetryRecord",
    # experiment entrypoints
    "run_scenario",
    "run_msd_comparison",
    "figure_result",
]
