"""The experiment harness: wire a scenario together, run it, collect results.

:func:`run_scenario` is a thin wrapper over the declarative runner
subsystem (:mod:`repro.runner`): it packs its keyword arguments into a
:class:`~repro.runner.ScenarioSpec` and hands execution to
:func:`~repro.runner.execute_spec`, returning the familiar
:class:`~repro.runner.ScenarioResult` with the
:class:`~repro.metrics.RunMetrics` every figure harness consumes.

Scheduler identity is passed by *name* (``"fifo" | "fair" | "tarazu" |
"late" | "e-ant"``) or as a factory; runs with different schedulers but the
same seed see identical workloads, block placements, and noise draws
(common random numbers via named RNG streams).

All optional parameters are keyword-only.  (Positional use was deprecated
with a compatibility shim for one release cycle and has been removed.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster import MachineSpec, Network
from ..core import EAntConfig
from ..faults import FaultPlan
from ..noise import DEFAULT_NOISE, NoiseModel
from ..observability import TelemetryConfig, Tracer
from ..runner import (
    SCHEDULER_NAMES,
    ScenarioResult,
    ScenarioSpec,
    execute_spec,
    make_scheduler,
)
from ..runner.engine import SchedulerFactory
from ..hadoop import HadoopConfig
from ..workloads import JobSpec

__all__ = ["ScenarioResult", "run_scenario", "make_scheduler", "SCHEDULER_NAMES"]


def run_scenario(
    jobs: Sequence[JobSpec],
    *,
    scheduler: Union[str, SchedulerFactory] = "fair",
    fleet: Optional[Sequence[Tuple[MachineSpec, int]]] = None,
    hadoop: Optional[HadoopConfig] = None,
    noise: Optional[NoiseModel] = DEFAULT_NOISE,
    seed: int = 0,
    eant_config: Optional[EAntConfig] = None,
    with_meter: bool = False,
    meter_interval: float = 30.0,
    placements: Optional[Dict[int, List[Tuple[int, ...]]]] = None,
    network: Optional[Network] = None,
    max_sim_time: float = 10_000_000.0,
    trace: Union[None, str, Path, Tracer] = None,
    telemetry: Union[None, bool, int, float, TelemetryConfig] = None,
    faults: Optional["FaultPlan"] = None,
) -> ScenarioResult:
    """Run one complete scenario and return its results.

    All optional parameters are keyword-only.

    Parameters
    ----------
    jobs:
        The workload, in any order (sorted by submit time internally).
    scheduler:
        Scheduler name or a factory ``streams -> Scheduler``.
    fleet:
        ``(spec, count)`` pairs; defaults to the paper's 16-slave fleet.
    hadoop, noise, seed:
        Framework config, noise model, master RNG seed.
    eant_config:
        E-Ant tuning (only used when ``scheduler == "e-ant"``).
    with_meter:
        Attach a periodic wall-power meter (adds readings to the result).
    meter_interval:
        Meter/snapshot sampling period in simulated seconds.
    placements:
        Optional per-job replica overrides: index in the submitted job
        list -> replica host tuples (locality experiments).
    network:
        Custom network fabric (e.g. a blocking switch for the locality
        experiment); defaults to non-blocking Gigabit Ethernet.
    max_sim_time:
        Hard cap guarding against non-terminating configurations.
    trace:
        ``None`` (default) runs fully uninstrumented.  A path writes a
        JSONL trace there on completion; a
        :class:`~repro.observability.Tracer` collects events in memory.
    telemetry:
        ``True`` attaches the columnar
        :class:`~repro.observability.TelemetrySink`; a number overrides
        the sampling interval (simulated seconds); a
        :class:`~repro.observability.TelemetryConfig` sets everything.
        Pure observation — does not change the simulated outcome.  For
        host time per layer, wrap the call in
        :func:`~repro.observability.profile_layers`.
    faults:
        Optional :class:`~repro.faults.FaultPlan` executed against the run
        (part of the spec identity, so faulted and fault-free runs never
        share a cache entry).
    """
    factory: Optional[SchedulerFactory] = None
    scheduler_name = scheduler
    if callable(scheduler):
        # Ad-hoc policies cannot be named declaratively; the spec carries a
        # placeholder and the factory rides along as a runtime override.
        factory, scheduler_name = scheduler, "fair"
    spec = ScenarioSpec(
        jobs=tuple(jobs),
        scheduler=scheduler_name,
        fleet=tuple(fleet) if fleet is not None else None,
        hadoop=hadoop,
        noise=noise,
        seed=seed,
        eant_config=eant_config,
        with_meter=with_meter,
        meter_interval=meter_interval,
        max_sim_time=max_sim_time,
        faults=faults,
    )
    return execute_spec(
        spec,
        trace=trace,
        telemetry=telemetry,
        placements=placements,
        network=network,
        scheduler_factory=factory,
    )
