"""Scheduling-overhead measurement (Section VI-D).

The paper reports that the self-adaptive ACO algorithm takes ~120 ms per
solve, negligible against the 5-minute control interval.  This module
builds the testbed-sized batch instance (``benchmarks/test_overhead.py``
times the construction-graph solver on it) and times the per-interval
pheromone update of the online scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from ..core import AssignmentProblem, ExchangeLevel, PheromoneTable, TaskFeedback

__all__ = ["OverheadResult", "testbed_problem", "measure_update_overhead"]


@dataclass(frozen=True)
class OverheadResult:
    """Wall-clock cost of one scheduling computation."""

    label: str
    mean_seconds: float
    repetitions: int


def testbed_problem(
    n_machines: int = 16,
    n_tasks: int = 96,
    seed: int = 0,
) -> AssignmentProblem:
    """A Section V-B-sized instance: 16 machines, one wave of 96 tasks."""
    rng = np.random.default_rng(seed)
    energy = rng.uniform(80.0, 400.0, size=(n_machines, n_tasks))
    slots = [6] * n_machines
    return AssignmentProblem.from_matrix(energy.tolist(), slots)


def measure_update_overhead(
    n_machines: int = 16,
    n_colonies: int = 20,
    tasks_per_interval: int = 500,
    repetitions: int = 20,
    seed: int = 0,
) -> OverheadResult:
    """Time one control-interval pheromone update of the online E-Ant."""
    rng = np.random.default_rng(seed)
    machine_ids = list(range(n_machines))
    table = PheromoneTable(machine_ids=machine_ids, exchange=ExchangeLevel.BOTH)
    feedback = [
        TaskFeedback(
            colony=(int(rng.integers(n_colonies)), "map"),
            machine_id=int(rng.integers(n_machines)),
            energy_joules=float(rng.uniform(80, 400)),
            job_group=(f"group{int(rng.integers(4))}", "map"),
        )
        for _ in range(tasks_per_interval)
    ]
    durations: List[float] = []
    for _ in range(repetitions):
        start = time.perf_counter()
        table.update(feedback)
        durations.append(time.perf_counter() - start)
    return OverheadResult(
        label="pheromone-interval-update",
        mean_seconds=sum(durations) / len(durations),
        repetitions=repetitions,
    )
