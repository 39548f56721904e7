"""Experiment harnesses: one module per paper figure/table (see DESIGN.md).

* :mod:`.motivation` — Figs. 1(a)-1(d) (Section II case study)
* :mod:`.energy_model` — Fig. 4 (Eq. 2 accuracy) and Fig. 7 (noise)
* :mod:`.locality` — Fig. 6 (data-locality impact)
* :mod:`.comparison` — Figs. 8(a)-(c) and Fig. 9 (headline evaluation)
* :mod:`.exchange` — Fig. 10 (exchange-strategy effectiveness)
* :mod:`.churn` — adaptiveness under cluster churn (crash + rejoin)
* :mod:`.convergence_exp` — Figs. 11(a)-(b) (search speed)
* :mod:`.sensitivity` — Figs. 12(a)-(b) (beta / control interval)
* :mod:`.overhead` — Section VI-D scheduling overhead
* :mod:`.figures` — every figure behind one :class:`FigureResult` type

The scenario-grid harnesses are declarative: each exposes a ``*_specs``
function emitting :class:`~repro.runner.ScenarioSpec` lists, and the
figure functions accept ``runner=`` (a :class:`~repro.runner.SweepRunner`)
to resolve those grids in parallel with result caching.
"""

from .churn import (
    CHURN_SCHEDULERS,
    ChurnResult,
    ChurnWindow,
    churn_adaptiveness,
    churn_plan,
    churn_specs,
)
from .comparison import (
    ComparisonResult,
    fig9_adaptiveness,
    msd_comparison_specs,
    run_msd_comparison,
)
from .convergence_exp import (
    ConvergenceMeasurement,
    fig11a_machine_homogeneity,
    fig11a_specs,
    fig11b_job_homogeneity,
    fig11b_specs,
)
from .energy_model import (
    ModelAccuracy,
    NoiseScatter,
    fig4_model_accuracy,
    fig7_noise_scatter,
)
from .exchange import (
    EXCHANGE_SETTINGS,
    ExchangeCurve,
    fig10_exchange_effectiveness,
    fig10_specs,
)
from .figures import FIGURE_NAMES, FigureResult, figure_result
from .harness import SCHEDULER_NAMES, ScenarioResult, make_scheduler, run_scenario
from .locality import LocalityPoint, fig6_locality_impact
from .motivation import (
    EfficiencyPoint,
    crossover_rate,
    fig1a_hardware_impact,
    fig1a_specs,
    fig1b_power_split,
    fig1b_specs,
    fig1c_specs,
    fig1c_workload_impact,
    fig1d_phase_breakdown,
    fig1d_specs,
    motivation_spec,
    peak_rate,
    throughput_per_watt,
)
from .overhead import (
    OverheadResult,
    measure_update_overhead,
    testbed_problem,
)
from .diurnal import (
    DIURNAL_SCHEDULERS,
    DiurnalPhase,
    DiurnalResult,
    diurnal_efficiency,
    diurnal_specs,
)
from .scenarios import (
    diurnal_overload_spec,
    diurnal_trace,
    exchange_workload,
    large_fleet_spec,
    motivation_rig,
    msd_scenario,
    open_loop_jobs,
    trace_driven_spec,
)
from .sensitivity import (
    BetaPoint,
    IntervalPoint,
    fig12a_beta_sweep,
    fig12a_specs,
    fig12b_interval_sweep,
    fig12b_specs,
)

__all__ = [
    "run_scenario",
    "make_scheduler",
    "ScenarioResult",
    "SCHEDULER_NAMES",
    "msd_scenario",
    "motivation_rig",
    "open_loop_jobs",
    "exchange_workload",
    "EfficiencyPoint",
    "motivation_spec",
    "throughput_per_watt",
    "crossover_rate",
    "peak_rate",
    "fig1a_specs",
    "fig1a_hardware_impact",
    "fig1b_specs",
    "fig1b_power_split",
    "fig1c_specs",
    "fig1c_workload_impact",
    "fig1d_specs",
    "fig1d_phase_breakdown",
    "ModelAccuracy",
    "NoiseScatter",
    "fig4_model_accuracy",
    "fig7_noise_scatter",
    "LocalityPoint",
    "fig6_locality_impact",
    "ComparisonResult",
    "msd_comparison_specs",
    "run_msd_comparison",
    "fig9_adaptiveness",
    "ExchangeCurve",
    "EXCHANGE_SETTINGS",
    "fig10_specs",
    "fig10_exchange_effectiveness",
    "CHURN_SCHEDULERS",
    "ChurnResult",
    "ChurnWindow",
    "churn_plan",
    "churn_specs",
    "churn_adaptiveness",
    "DIURNAL_SCHEDULERS",
    "DiurnalPhase",
    "DiurnalResult",
    "diurnal_specs",
    "diurnal_efficiency",
    "trace_driven_spec",
    "diurnal_trace",
    "diurnal_overload_spec",
    "large_fleet_spec",
    "ConvergenceMeasurement",
    "fig11a_specs",
    "fig11a_machine_homogeneity",
    "fig11b_specs",
    "fig11b_job_homogeneity",
    "BetaPoint",
    "IntervalPoint",
    "fig12a_specs",
    "fig12a_beta_sweep",
    "fig12b_specs",
    "fig12b_interval_sweep",
    "OverheadResult",
    "testbed_problem",
    "measure_update_overhead",
    "FigureResult",
    "FIGURE_NAMES",
    "figure_result",
]
