"""Classic ACO over the construction graph of Table II.

The online scheduler (:mod:`repro.core.scheduler`) applies ACO *adaptively*
— one pheromone update per control interval from real energy feedback.
This module implements the underlying combinatorial picture the paper
formulates in Section IV-A: a construction graph whose rows are machines
and whose columns are tasks (Table II), an ant being one complete
assignment of every task to a machine subject to per-machine slot limits,
and the objective of Eq. 1 — minimize total assignment energy.

:class:`AcoSolver` is used for (i) validating the formulation against
exhaustive search on small instances, and (ii) the Section VI-D overhead
measurement (the paper reports ~120 ms per solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AssignmentProblem", "AcoSolution", "AcoSolver"]


@dataclass(frozen=True)
class AssignmentProblem:
    """One instance of the Eq. 1 task-assignment problem.

    Parameters
    ----------
    energy:
        ``energy[m][n]`` — Joules for task ``n`` on machine ``m``
        (the ``E(T_n^j(m))`` cells of Table II).
    slots:
        Free slots per machine (the Eq. 1 capacity constraint).
    """

    energy: Tuple[Tuple[float, ...], ...]
    slots: Tuple[int, ...]

    @classmethod
    def from_matrix(cls, energy: Sequence[Sequence[float]], slots: Sequence[int]) -> "AssignmentProblem":
        matrix = tuple(tuple(float(x) for x in row) for row in energy)
        if not matrix or not matrix[0]:
            raise ValueError("energy matrix must be non-empty")
        widths = {len(row) for row in matrix}
        if len(widths) != 1:
            raise ValueError("energy matrix rows must have equal length")
        if any(x <= 0 for row in matrix for x in row):
            raise ValueError("energies must be positive")
        slot_tuple = tuple(int(s) for s in slots)
        if len(slot_tuple) != len(matrix):
            raise ValueError("one slot count per machine required")
        if any(s < 0 for s in slot_tuple):
            raise ValueError("slot counts must be non-negative")
        if sum(slot_tuple) < len(matrix[0]):
            raise ValueError("not enough slots for all tasks")
        return cls(energy=matrix, slots=slot_tuple)

    @property
    def num_machines(self) -> int:
        return len(self.energy)

    @property
    def num_tasks(self) -> int:
        return len(self.energy[0])

    def cost(self, assignment: Sequence[int]) -> float:
        """Total energy of a machine-per-task assignment vector."""
        if len(assignment) != self.num_tasks:
            raise ValueError("assignment length must equal task count")
        return sum(self.energy[m][n] for n, m in enumerate(assignment))

    def is_feasible(self, assignment: Sequence[int]) -> bool:
        """Does the assignment respect every machine's slot limit?"""
        counts = [0] * self.num_machines
        for machine in assignment:
            counts[machine] += 1
        return all(counts[m] <= self.slots[m] for m in range(self.num_machines))


@dataclass(frozen=True)
class AcoSolution:
    """Result of one :meth:`AcoSolver.solve` call."""

    assignment: Tuple[int, ...]
    cost: float
    iterations: int
    #: best cost found at the end of each iteration (for convergence plots)
    cost_trace: Tuple[float, ...]


@dataclass
class AcoSolver:
    """MAX-MIN-style ant system over the construction graph.

    Each iteration, ``n_ants`` ants build full assignments column by
    column: for each task the ant samples a machine with probability
    proportional to ``tau^a * (1/E)^b`` among machines with free slots.
    The iteration-best ant deposits pheromone inversely proportional to
    its cost; pheromone evaporates by ``rho`` and is clamped.
    """

    n_ants: int = 16
    n_iterations: int = 40
    rho: float = 0.5
    alpha: float = 1.0
    beta: float = 2.0
    tau_min: float = 0.05
    tau_max: float = 50.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_ants < 1 or self.n_iterations < 1:
            raise ValueError("need at least one ant and one iteration")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        self._rng = np.random.default_rng(self.seed)

    def solve(self, problem: AssignmentProblem) -> AcoSolution:
        """Minimize Eq. 1 for ``problem``; returns the best tour found."""
        energy = np.asarray(problem.energy, dtype=float)
        heuristic = (1.0 / energy) ** self.beta
        tau = np.full_like(energy, 1.0)
        best_assignment: Optional[np.ndarray] = None
        best_cost = float("inf")
        trace: List[float] = []

        task_range = np.arange(problem.num_tasks)
        for _iteration in range(self.n_iterations):
            # tau only changes between iterations, so the tau^a * eta^b
            # desirability matrix is shared by the whole cohort of ants
            # instead of re-exponentiated column by column per ant.
            desirability = (tau**self.alpha) * heuristic
            iter_best: Optional[np.ndarray] = None
            iter_cost = float("inf")
            for _ant in range(self.n_ants):
                assignment, cost = self._construct(problem, energy, desirability)
                if cost < iter_cost:
                    iter_best, iter_cost = assignment, cost
            if iter_cost < best_cost:
                best_assignment, best_cost = iter_best, iter_cost
            # Evaporate, then let the iteration-best ant deposit.  The
            # (machine, task) pairs are unique — one machine per task — so
            # the fancy-indexed add touches each cell at most once.
            tau *= 1.0 - self.rho
            assert iter_best is not None
            deposit = self.rho * (np.mean(energy) * problem.num_tasks / iter_cost)
            tau[iter_best, task_range] += deposit
            np.clip(tau, self.tau_min, self.tau_max, out=tau)
            trace.append(best_cost)

        assert best_assignment is not None
        return AcoSolution(
            assignment=tuple(int(m) for m in best_assignment),
            cost=best_cost,
            iterations=self.n_iterations,
            cost_trace=tuple(trace),
        )

    def _construct(
        self,
        problem: AssignmentProblem,
        energy: np.ndarray,
        desirability: np.ndarray,
    ) -> Tuple[np.ndarray, float]:
        """One ant's tour: visit each column once, respect row capacities.

        ``desirability`` is the iteration's precomputed ``tau^a * eta^b``
        matrix; each task's sampling weights are one masked column read.
        """
        remaining = np.array(problem.slots, dtype=int)
        assignment = np.empty(problem.num_tasks, dtype=int)
        cost = 0.0
        # Visit tasks in random order so capacity pressure is not biased
        # toward low-index tasks.
        order = self._rng.permutation(problem.num_tasks)
        for task in order:
            available = remaining > 0
            weights = np.where(available, desirability[:, task], 0.0)
            total = weights.sum()
            if total <= 0:  # all-available fallback: uniform over open rows
                weights = available.astype(float)
                total = weights.sum()
            probabilities = weights / total
            machine = int(self._rng.choice(problem.num_machines, p=probabilities))
            assignment[task] = machine
            remaining[machine] -= 1
            cost += energy[machine, task]
        return assignment, float(cost)


def brute_force_best(problem: AssignmentProblem) -> Tuple[Tuple[int, ...], float]:
    """Exhaustive optimum for tiny instances (test oracle)."""
    import itertools

    best_cost = float("inf")
    best: Optional[Tuple[int, ...]] = None
    for assignment in itertools.product(range(problem.num_machines), repeat=problem.num_tasks):
        if not problem.is_feasible(assignment):
            continue
        cost = problem.cost(assignment)
        if cost < best_cost:
            best_cost, best = cost, assignment
    if best is None:
        raise ValueError("no feasible assignment exists")
    return best, best_cost
