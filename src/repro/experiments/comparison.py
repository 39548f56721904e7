"""The headline scheduler comparison (Figs. 8(a)-(c)) and Fig. 9 adaptiveness.

One MSD workload is replayed under Fair, Tarazu and E-Ant with common
random numbers; we report per-machine-type energy, CPU utilization,
normalized completion times per job class, and E-Ant's task-assignment
distributions by application and by task kind.

The experiment is declarative: :func:`msd_comparison_specs` emits one
:class:`~repro.runner.ScenarioSpec` per scheduler, and
:func:`run_msd_comparison` resolves them through an optional
:class:`~repro.runner.SweepRunner` (parallel + cached) or serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import EAntConfig
from ..metrics import RunMetrics
from ..runner import RunRecord, ScenarioSpec, SweepRunner, resolve_specs
from .scenarios import msd_scenario

__all__ = [
    "ComparisonResult",
    "msd_comparison_specs",
    "run_msd_comparison",
    "fig9_adaptiveness",
]

SCHEDULERS = ("fair", "tarazu", "e-ant")


@dataclass
class ComparisonResult:
    """All compared schedulers' results on one MSD workload."""

    seed: int
    runs: Dict[str, RunRecord] = field(default_factory=dict)

    def metrics(self, name: str) -> RunMetrics:
        return self.runs[name].metrics

    # ------------------------------------------------------------- fig 8(a)
    def energy_by_type(self) -> Dict[str, Dict[str, float]]:
        """scheduler -> machine model -> kJ (Fig. 8(a) bars)."""
        return {
            name: {m: v / 1000.0 for m, v in run.metrics.energy_by_type.items()}
            for name, run in self.runs.items()
        }

    def total_energy_kj(self, name: str) -> float:
        return self.metrics(name).total_energy_kj

    def saving_vs(self, baseline: str, scheduler: str = "e-ant") -> float:
        """Fractional total-energy saving of ``scheduler`` vs ``baseline``."""
        base = self.total_energy_kj(baseline)
        other = self.total_energy_kj(scheduler)
        return (base - other) / base

    def dynamic_saving_vs(self, baseline: str, scheduler: str = "e-ant") -> float:
        """Fractional saving on the dynamic (CPU-activity) energy alone."""
        base = self.metrics(baseline).dynamic_energy_joules
        other = self.metrics(scheduler).dynamic_energy_joules
        return (base - other) / base

    # ------------------------------------------------------------- fig 8(b)
    def utilization_by_type(self) -> Dict[str, Dict[str, float]]:
        """scheduler -> machine model -> mean CPU utilization."""
        return {name: run.metrics.utilization_by_type for name, run in self.runs.items()}

    # ------------------------------------------------------------- fig 8(c)
    def normalized_jct_by_class(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """(application, size class) -> scheduler -> JCT / JCT_fair."""
        base = self.metrics("fair").mean_jct_by_class()
        table: Dict[Tuple[str, str], Dict[str, float]] = {}
        for key, fair_jct in base.items():
            table[key] = {}
            for name in self.runs:
                jct = self.metrics(name).mean_jct_by_class().get(key)
                table[key][name] = jct / fair_jct if jct else float("nan")
        return table


def msd_comparison_specs(
    seed: int = 3,
    n_jobs: int = 87,
    eant_config: Optional[EAntConfig] = None,
    schedulers: Tuple[str, ...] = SCHEDULERS,
) -> List[ScenarioSpec]:
    """One spec per scheduler, sharing one MSD workload draw (CRN)."""
    jobs, hadoop = msd_scenario(seed=seed, n_jobs=n_jobs)
    return [
        ScenarioSpec(
            jobs=tuple(jobs),
            scheduler=name,
            hadoop=hadoop,
            seed=seed,
            eant_config=eant_config if name == "e-ant" else None,
            label=name,
        )
        for name in schedulers
    ]


def run_msd_comparison(
    *,
    seed: int = 3,
    n_jobs: int = 87,
    eant_config: Optional[EAntConfig] = None,
    schedulers: Tuple[str, ...] = SCHEDULERS,
    runner: Optional[SweepRunner] = None,
) -> ComparisonResult:
    """Replay the MSD workload under each scheduler (Figs. 8 and 9).

    All parameters are keyword-only.
    """
    specs = msd_comparison_specs(
        seed=seed, n_jobs=n_jobs, eant_config=eant_config, schedulers=schedulers
    )
    records = resolve_specs(specs, runner)
    return ComparisonResult(
        seed=seed,
        runs={spec.label: record for spec, record in zip(specs, records)},
    )


def fig9_adaptiveness(
    comparison: ComparisonResult,
    machine_types: Tuple[str, ...] = ("T420", "Desktop", "Atom"),
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 9: E-Ant's per-machine task distribution.

    Returns ``{"by_app": {model: {app: tasks/machine}},
    "by_kind": {model: {kind: tasks/machine}}}`` normalized per machine of
    each type, so single-instance types compare fairly with the 8 desktops.
    """
    eant = comparison.runs["e-ant"]
    collector = eant.metrics.collector
    counts = {model: eant.machines_by_model[model] for model in machine_types}
    by_app_raw = collector.tasks_by_machine_and_app()
    by_kind_raw = collector.tasks_by_machine_and_kind()
    by_app = {
        model: {
            app: by_app_raw.get(model, {}).get(app, 0) / counts[model]
            for app in ("wordcount", "grep", "terasort")
        }
        for model in machine_types
    }
    by_kind = {
        model: {
            kind: by_kind_raw.get(model, {}).get(kind, 0) / counts[model]
            for kind in ("map", "reduce")
        }
        for model in machine_types
    }
    return {"by_app": by_app, "by_kind": by_kind}
