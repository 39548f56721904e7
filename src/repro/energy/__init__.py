"""Energy substrate: Eq. 2 task model, system identification, wall meter."""

from .estimation import fit_power_model, nrmse, rmse
from .meter import ClusterMeter, MeterReading
from .powermgmt import PowerManager, SleepPolicy, pick_covering_subset
from .waste import attempt_wasted_joules, killed_attempts, wasted_energy_breakdown
from .model import (
    DEFAULT_DELTA_T,
    TaskEnergyModel,
    UtilizationSample,
    samples_from_phases,
)

__all__ = [
    "TaskEnergyModel",
    "UtilizationSample",
    "samples_from_phases",
    "DEFAULT_DELTA_T",
    "fit_power_model",
    "nrmse",
    "rmse",
    "ClusterMeter",
    "PowerManager",
    "SleepPolicy",
    "pick_covering_subset",
    "MeterReading",
    "attempt_wasted_joules",
    "killed_attempts",
    "wasted_energy_breakdown",
]
