"""System identification and accuracy metrics for the energy model.

Section IV-B: "alpha_m ... can be obtained by using a standard system
identification technique, the least squares method."  Given paired
observations of machine utilization and wall power (from the simulated
WattsUP meter), :func:`fit_power_model` recovers ``(P_idle, alpha)`` by
ordinary least squares.  :func:`nrmse` is the paper's accuracy metric for
Fig. 4 (normalized root mean square error).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster import PowerModel

__all__ = ["fit_power_model", "nrmse", "rmse"]


def fit_power_model(
    utilizations: Sequence[float],
    powers: Sequence[float],
) -> PowerModel:
    """Least-squares fit of the affine power law P(u) = P_idle + alpha * u.

    Parameters
    ----------
    utilizations:
        Machine-wide CPU utilization observations in [0, 1].
    powers:
        Simultaneous wall-power observations in watts.

    Returns
    -------
    PowerModel
        The fitted (idle, alpha) pair.  Negative fitted parameters are
        clamped at zero — a physical power law cannot have them, and tiny
        negative intercepts do occur on noisy, narrow-range data.

    Raises
    ------
    ValueError
        If fewer than two distinct utilization levels are provided (the
        slope is then unidentifiable).
    """
    u = np.asarray(utilizations, dtype=float)
    p = np.asarray(powers, dtype=float)
    if u.shape != p.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {p.shape}")
    if u.size < 2:
        raise ValueError("need at least two observations")
    if float(np.ptp(u)) < 1e-9:
        raise ValueError("utilization observations must span more than one level")
    design = np.column_stack([np.ones_like(u), u])
    (intercept, slope), *_ = np.linalg.lstsq(design, p, rcond=None)
    return PowerModel(idle_watts=max(0.0, float(intercept)), alpha_watts=max(0.0, float(slope)))


def rmse(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """Root mean square error between paired observations."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(estimated, dtype=float)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {e.shape}")
    if a.size == 0:
        raise ValueError("need at least one observation")
    return float(np.sqrt(np.mean((a - e) ** 2)))


def nrmse(actual: Sequence[float], estimated: Sequence[float]) -> float:
    """RMSE normalized by the range of the actual values (Fig. 4 metric).

    When the actual values are all identical, normalization falls back to
    their mean magnitude so that the metric stays finite and comparable.
    """
    a = np.asarray(actual, dtype=float)
    spread = float(np.ptp(a))
    if spread < 1e-12:
        spread = float(np.mean(np.abs(a)))
        if spread < 1e-12:
            return 0.0
    return rmse(actual, estimated) / spread
