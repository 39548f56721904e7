"""E-Ant — the paper's primary contribution.

* :class:`EAntScheduler` / :class:`EAntConfig` — the adaptive task assigner.
* :class:`PheromoneTable`, :class:`TaskFeedback`, :class:`ExchangeLevel` —
  Eqs. 4-6 with machine/job-level exchange.
* :class:`TaskAnalyzer` — Eq. 2 energy feedback from TaskTracker reports.
* :func:`fairness_eta`, :class:`FairnessView` — the Eq. 7 heuristic.
* :class:`ConvergenceDetector` — Section VI-C stability detection.
* :class:`AcoSolver`, :class:`AssignmentProblem` — the Table II
  construction-graph formulation (batch solver + overhead measurements).
"""

from .aco import AcoSolution, AcoSolver, AssignmentProblem, brute_force_best
from .analyzer import TaskAnalyzer
from .convergence import ConvergenceDetector, distribution_overlap
from .heuristics import FairnessView, fairness_eta
from .pheromone import ExchangeLevel, PheromoneTable, TaskFeedback
from .scheduler import EAntConfig, EAntScheduler
from .service import (
    AssignmentResponse,
    HeartbeatRequest,
    LocalSchedulerCore,
    TaskDirective,
    TrackerInfo,
    WireError,
)

__all__ = [
    "EAntScheduler",
    "EAntConfig",
    "LocalSchedulerCore",
    "TrackerInfo",
    "HeartbeatRequest",
    "TaskDirective",
    "AssignmentResponse",
    "WireError",
    "PheromoneTable",
    "TaskFeedback",
    "ExchangeLevel",
    "TaskAnalyzer",
    "FairnessView",
    "fairness_eta",
    "ConvergenceDetector",
    "distribution_overlap",
    "AcoSolver",
    "AcoSolution",
    "AssignmentProblem",
    "brute_force_best",
]
