"""Uniform figure results: every ``repro figure`` target behind one type.

Historically each figure harness returned its own shape (dicts of curves,
lists of points, a scatter object) and the CLI hand-formatted each one.
:class:`FigureResult` unifies them: named, ordered series of pre-formatted
rows plus machine-readable metadata, rendered identically by
:meth:`FigureResult.render` — so the CLI, tests, and notebooks all consume
the same object.

:func:`figure_result` is the registry: it maps a figure name (``fig1a`` …
``fig12b``) to its harness, runs it (optionally through a
:class:`~repro.runner.SweepRunner` for the scenario-grid figures), and
folds the outcome into a :class:`FigureResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..runner import SweepRunner
from .churn import churn_adaptiveness
from .convergence_exp import fig11a_machine_homogeneity, fig11b_job_homogeneity
from .diurnal import diurnal_efficiency
from .energy_model import fig4_model_accuracy, fig7_noise_scatter
from .exchange import fig10_exchange_effectiveness
from .locality import fig6_locality_impact
from .motivation import (
    crossover_rate,
    fig1a_hardware_impact,
    fig1b_power_split,
    fig1c_workload_impact,
    fig1d_phase_breakdown,
    peak_rate,
)
from .sensitivity import fig12a_beta_sweep, fig12b_interval_sweep

__all__ = ["FigureResult", "figure_result", "FIGURE_NAMES"]


@dataclass(frozen=True)
class FigureResult:
    """One regenerated figure: named data series plus provenance metadata.

    ``series`` maps a series label (machine, workload, exchange setting —
    or ``"points"`` for single-series figures) to its pre-formatted,
    tab-separated rows.  ``series_notes`` attach per-series commentary
    (rendered as a ``# …`` line directly after that series' rows);
    ``notes`` trail the whole figure.  ``metadata`` carries the raw
    numbers commentary is derived from, for programmatic consumers."""

    name: str
    series: Dict[str, Tuple[str, ...]]
    metadata: Dict[str, object] = field(default_factory=dict)
    series_notes: Dict[str, str] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    def render(self) -> str:
        """The figure as the CLI prints it (rows + ``# …`` commentary)."""
        lines = []
        for label, rows in self.series.items():
            lines.extend(rows)
            if label in self.series_notes:
                lines.append(f"# {self.series_notes[label]}")
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)


def _fig1a(runner: Optional[SweepRunner]) -> FigureResult:
    curves = fig1a_hardware_impact(runner=runner)
    crossover = crossover_rate(curves)
    return FigureResult(
        name="fig1a",
        series={
            machine: tuple(
                f"{machine}\t{p.rate_per_min}\t{p.throughput_per_watt:.5f}"
                for p in points
            )
            for machine, points in curves.items()
        },
        metadata={"crossover_rate_per_min": crossover},
        notes=(f"crossover ~{crossover:.1f} tasks/min (paper: ~12)",),
    )


def _fig1b(runner: Optional[SweepRunner]) -> FigureResult:
    split = fig1b_power_split(runner=runner)
    return FigureResult(
        name="fig1b",
        series={
            "points": tuple(
                f"{machine}\t{load}\t{p.idle_power_watts:.1f}\t{p.dynamic_power_watts:.1f}"
                for (machine, load), p in split.items()
            )
        },
    )


def _fig1c(runner: Optional[SweepRunner]) -> FigureResult:
    curves = fig1c_workload_impact(runner=runner)
    peaks = {workload: peak_rate(points) for workload, points in curves.items()}
    return FigureResult(
        name="fig1c",
        series={
            workload: tuple(
                f"{workload}\t{p.rate_per_min}\t{p.throughput_per_watt:.5f}"
                for p in points
            )
            for workload, points in curves.items()
        },
        metadata={"peak_rate_per_min": peaks},
        series_notes={
            workload: f"{workload} peak at {peak:.0f}/min"
            for workload, peak in peaks.items()
        },
    )


def _fig1d(runner: Optional[SweepRunner]) -> FigureResult:
    breakdown = fig1d_phase_breakdown(runner=runner)
    return FigureResult(
        name="fig1d",
        series={
            "points": tuple(
                f"{app}\t{parts['map']:.2f}\t{parts['shuffle']:.2f}\t{parts['reduce']:.2f}"
                for app, parts in breakdown.items()
            )
        },
    )


def _fig4(runner: Optional[SweepRunner]) -> FigureResult:
    rows = fig4_model_accuracy()
    return FigureResult(
        name="fig4",
        series={
            "points": tuple(
                f"{row.machine}\t{row.workload}\t{row.measured_joules:.0f}\t"
                f"{row.estimated_joules:.0f}\t{row.task_nrmse:.3f}"
                for row in rows
            )
        },
    )


def _fig6(runner: Optional[SweepRunner]) -> FigureResult:
    points = fig6_locality_impact()
    return FigureResult(
        name="fig6",
        series={
            "points": tuple(
                f"{point.local_fraction}\t{point.completion_time_s:.0f}"
                for point in points
            )
        },
    )


def _fig7(runner: Optional[SweepRunner]) -> FigureResult:
    scatter = fig7_noise_scatter()
    return FigureResult(
        name="fig7",
        series={
            "points": tuple(
                f"{index}\t{energy:.1f}"
                for index, energy in enumerate(scatter.task_energies)
            )
        },
    )


def _fig10(runner: Optional[SweepRunner]) -> FigureResult:
    curves = fig10_exchange_effectiveness(runner=runner)
    return FigureResult(
        name="fig10",
        series={
            setting: tuple(
                f"{setting}\t{t:.0f}\t{saving:.1f}"
                for t, saving in zip(curve.times_s, curve.savings_kj)
            )
            for setting, curve in curves.items()
        },
        metadata={
            "final_saving_kj": {
                setting: curve.final_saving_kj for setting, curve in curves.items()
            }
        },
    )


def _fig11a(runner: Optional[SweepRunner]) -> FigureResult:
    points = fig11a_machine_homogeneity(runner=runner)
    return FigureResult(
        name="fig11a",
        series={
            "points": tuple(
                f"{point.homogeneity}\t{point.mean_convergence_s:.0f}"
                for point in points
            )
        },
    )


def _fig11b(runner: Optional[SweepRunner]) -> FigureResult:
    points = fig11b_job_homogeneity(runner=runner)
    return FigureResult(
        name="fig11b",
        series={
            "points": tuple(
                f"{point.homogeneity}\t{point.mean_converged_only_s:.0f}\t"
                f"{point.converged_fraction:.2f}"
                for point in points
            )
        },
    )


def _fig12a(runner: Optional[SweepRunner]) -> FigureResult:
    points = fig12a_beta_sweep(runner=runner)
    return FigureResult(
        name="fig12a",
        series={
            "points": tuple(
                f"{point.beta}\t{point.energy_saving_kj:.1f}\t{point.fairness:.4f}"
                for point in points
            )
        },
    )


def _fig12b(runner: Optional[SweepRunner]) -> FigureResult:
    points = fig12b_interval_sweep(runner=runner)
    return FigureResult(
        name="fig12b",
        series={
            "points": tuple(
                f"{point.interval_s:.0f}\t{point.energy_saving_kj:.1f}"
                for point in points
            )
        },
    )


def _churn(runner: Optional[SweepRunner]) -> FigureResult:
    results = churn_adaptiveness(runner=runner)
    series = {
        scheduler: tuple(
            f"{scheduler}\t{window.name}\t{window.tasks:.1f}\t"
            f"{window.energy_kj:.1f}\t{window.tasks_per_kj:.4f}"
            for window in result.windows
        )
        for scheduler, result in results.items()
    }
    return FigureResult(
        name="churn",
        series=series,
        metadata={
            "recovery_ratio": {s: r.recovery_ratio for s, r in results.items()},
            "reexecuted_tasks": {s: r.reexecuted_tasks for s, r in results.items()},
            "wasted_energy_kj": {s: r.wasted_energy_kj for s, r in results.items()},
        },
        series_notes={
            scheduler: (
                f"post-rejoin efficiency {result.recovery_ratio:.0%} of pre-fault; "
                f"{result.reexecuted_tasks:.1f} attempts re-executed, "
                f"{result.wasted_energy_kj:.1f} kJ wasted"
            )
            for scheduler, result in results.items()
        },
    )


def _diurnal(runner: Optional[SweepRunner]) -> FigureResult:
    results = diurnal_efficiency(runner=runner)
    series = {
        scheduler: tuple(
            f"{scheduler}\t{phase.name}\t{phase.tasks:.1f}\t"
            f"{phase.energy_kj:.1f}\t{phase.tasks_per_kj:.4f}"
            for phase in result.phases
        )
        for scheduler, result in results.items()
    }
    return FigureResult(
        name="diurnal",
        series=series,
        metadata={
            "peak_holdup": {s: r.peak_holdup for s, r in results.items()},
            "drain_fraction": {s: r.drain_fraction for s, r in results.items()},
            "jobs_backlogged": {s: r.jobs_backlogged for s, r in results.items()},
        },
        series_notes={
            scheduler: (
                f"peak efficiency {result.peak_holdup:.0%} of trough; "
                f"drained {result.drain_fraction:.0%} of offered jobs, "
                f"{result.jobs_backlogged:.1f} backlogged at horizon"
            )
            for scheduler, result in results.items()
        },
    )


_BUILDERS: Dict[str, Callable[[Optional[SweepRunner]], FigureResult]] = {
    "fig1a": _fig1a,
    "fig1b": _fig1b,
    "fig1c": _fig1c,
    "fig1d": _fig1d,
    "fig4": _fig4,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig10": _fig10,
    "fig11a": _fig11a,
    "fig11b": _fig11b,
    "fig12a": _fig12a,
    "fig12b": _fig12b,
    "churn": _churn,
    "diurnal": _diurnal,
}

#: Every figure ``repro figure`` can regenerate, in paper order.
FIGURE_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


def figure_result(name: str, *, runner: Optional[SweepRunner] = None) -> FigureResult:
    """Regenerate ``name``'s data as a :class:`FigureResult`.

    ``runner`` parallelizes/caches the scenario-grid figures; the analytic
    ones (fig4, fig6, fig7) run inline regardless.  ``runner`` is
    keyword-only.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; known: {', '.join(FIGURE_NAMES)}"
        ) from None
    return builder(runner)
