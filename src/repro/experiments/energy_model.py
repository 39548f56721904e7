"""Energy-model validation (Fig. 4) and system-noise impact (Fig. 7).

Fig. 4 compares the machine's actually-measured energy with the sum of
Eq. 2 per-task estimates while a PUMA job saturates one machine; the paper
reports NRMSE of 7.9 / 10.5 / 11.6 % for Wordcount / Terasort / Grep.

Fig. 7 shows the scatter that transient system noise induces in per-task
energy estimates of one Wordcount job on a T420-class server — the spread
that motivates the exchange strategies of Section IV-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..cluster import DESKTOP, T420, MachineSpec
from ..core import TaskAnalyzer
from ..energy import TaskEnergyModel, nrmse
from ..hadoop import TaskKind
from ..noise import NoiseModel
from ..workloads import PUMA, puma_job
from .harness import run_scenario

__all__ = [
    "ModelAccuracy",
    "fig4_model_accuracy",
    "NoiseScatter",
    "fig7_noise_scatter",
]


@dataclass(frozen=True)
class ModelAccuracy:
    """Accuracy of the Eq. 2 estimator for one (machine, application)."""

    machine: str
    workload: str
    measured_joules: float
    estimated_joules: float
    task_nrmse: float

    @property
    def relative_error(self) -> float:
        """|estimated - measured| / measured of the job-level totals."""
        if self.measured_joules <= 0:
            return 0.0
        return abs(self.estimated_joules - self.measured_joules) / self.measured_joules


def _run_single_machine(
    spec: MachineSpec,
    workload: str,
    input_gb: float,
    noise: NoiseModel,
    seed: int,
):
    job = puma_job(workload, input_gb=input_gb)
    # One machine with the standard 4 map + 2 reduce slots (reduces must
    # be runnable, unlike the map-only open-loop rig of Fig. 1).
    return run_scenario(
        [job],
        scheduler="fifo",
        fleet=[(spec.with_slots(4, 2), 1)],
        noise=noise,
        seed=seed,
    )


def fig4_model_accuracy(
    machines: Tuple[MachineSpec, ...] = (DESKTOP, T420),
    input_gb: float = 4.0,
    utilization_sigma: float = 0.10,
    seed: int = 0,
) -> List[ModelAccuracy]:
    """Fig. 4: measured vs estimated energy per machine and application.

    The machine runs one job alone; "measured" is the exact power-law
    integral (the WattsUP stand-in), "estimated" the sum of Eq. 2 task
    estimates from the noisy CPU samples plus the idle floor of slots
    that sat empty.
    """
    noise = NoiseModel(
        duration_sigma=0.05,
        utilization_sigma=utilization_sigma,
        straggler_prob=0.0,
        straggler_factor=1.0,
    )
    results: List[ModelAccuracy] = []
    for spec in machines:
        for workload in sorted(PUMA):
            result = _run_single_machine(spec, workload, input_gb, noise, seed)
            machine = result.cluster.machine(0)
            measured = machine.energy.total_joules
            analyzer = TaskAnalyzer(result.cluster)
            per_task_true: List[float] = []
            per_task_estimated: List[float] = []
            model = TaskEnergyModel.for_spec(machine.spec)
            estimated_total = 0.0
            busy_slot_seconds = 0.0
            for report in result.jobtracker.reports:
                estimate = analyzer.estimate(report)
                true_energy = model.estimate_from_average(
                    report.avg_utilization, report.duration
                )
                per_task_estimated.append(estimate)
                per_task_true.append(true_energy)
                estimated_total += estimate
                busy_slot_seconds += report.duration
            # Idle floor of slot-time not covered by any task (the machine
            # is on for the whole makespan regardless).
            span = result.metrics.makespan
            total_slot_seconds = machine.spec.total_slots * span
            idle_gap = max(0.0, total_slot_seconds - busy_slot_seconds)
            estimated_total += model.idle_share_watts * idle_gap
            results.append(
                ModelAccuracy(
                    machine=spec.model,
                    workload=workload,
                    measured_joules=measured,
                    estimated_joules=estimated_total,
                    task_nrmse=nrmse(per_task_true, per_task_estimated),
                )
            )
    return results


@dataclass(frozen=True)
class NoiseScatter:
    """Fig. 7 summary: per-task energy scatter under system noise."""

    task_energies: Tuple[float, ...]
    mean_joules: float
    std_joules: float
    max_joules: float
    min_joules: float

    @property
    def coefficient_of_variation(self) -> float:
        if self.mean_joules <= 0:
            return 0.0
        return self.std_joules / self.mean_joules


def fig7_noise_scatter(
    input_gb: float = 8.0,
    noise: NoiseModel = None,
    seed: int = 0,
) -> NoiseScatter:
    """Fig. 7: estimated per-task energies of Wordcount on a T420 server.

    With data skew, stragglers and measurement jitter enabled, individual
    task estimates scatter widely around the mean — the spread the paper
    plots as "impact of system noise".
    """
    if noise is None:
        noise = NoiseModel(
            duration_sigma=0.15,
            utilization_sigma=0.25,
            straggler_prob=0.05,
            straggler_factor=2.5,
            skew_sigma=0.3,
        )
    result = _run_single_machine(T420, "wordcount", input_gb, noise, seed)
    analyzer = TaskAnalyzer(result.cluster)
    energies = [
        analyzer.estimate(report)
        for report in result.jobtracker.reports
        if report.kind is TaskKind.MAP
    ]
    values = np.asarray(energies)
    return NoiseScatter(
        task_energies=tuple(float(v) for v in values),
        mean_joules=float(values.mean()),
        std_joules=float(values.std()),
        max_joules=float(values.max()),
        min_joules=float(values.min()),
    )
