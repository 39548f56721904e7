"""The task-level energy model of Eq. 2.

The energy consumed by task ``T_n^j`` on machine ``m`` is estimated from
the per-heartbeat CPU-utilization samples of its execution process::

    E(T_n^j(m)) = sum_{t = T_start}^{T_finish}
                  ( P_idle_m / mslot  +  alpha_m * u(T_n^j(m)) ) * dt

where ``u`` is the task process's machine-wide CPU utilization during each
sample window ``dt`` (Δt = 3 s, Hadoop's heartbeat interval), ``P_idle_m``
is the machine's idle power, ``mslot`` its total slot count and ``alpha_m``
the machine's dynamic power range.  Both ``P_idle_m`` and ``alpha_m`` are
per-machine-type constants obtained by least-squares system identification
(:mod:`repro.energy.estimation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..cluster import MachineSpec

__all__ = [
    "UtilizationSample",
    "TaskEnergyModel",
    "samples_from_phases",
]

#: Hadoop's default heartbeat interval (Section IV-B sets Δt to this).
DEFAULT_DELTA_T = 3.0

_new_tuple = tuple.__new__


class UtilizationSample(NamedTuple):
    """One heartbeat-window CPU sample of a task process.

    A NamedTuple rather than a frozen dataclass: every task attempt
    produces one sample per heartbeat window, so at datacenter scale
    hundreds of thousands are constructed per run and the frozen
    dataclass's per-field ``object.__setattr__`` cost is measurable.

    Parameters
    ----------
    utilization:
        The task process's CPU utilization, as a fraction of the whole
        machine's CPU capacity (so a single saturated core on a 24-core
        machine reports 1/24).
    duration:
        Window length in seconds (normally Δt; the final window of a task
        is usually shorter; must be non-negative).
    """

    utilization: float
    duration: float


@dataclass
class TaskEnergyModel:
    """Per-machine-type instantiation of Eq. 2.

    Parameters
    ----------
    idle_watts, alpha_watts:
        The machine type's power-law parameters.  In a deployment these
        come from system identification against a wall-power meter; tests
        may pass the catalog's ground-truth values directly.
    total_slots:
        ``mslot`` — how many ways the idle floor is split.
    """

    idle_watts: float
    alpha_watts: float
    total_slots: int

    @classmethod
    def for_spec(cls, spec: MachineSpec) -> "TaskEnergyModel":
        """Model parameterized straight from a catalog spec (exact fit)."""
        return cls(
            idle_watts=spec.power.idle_watts,
            alpha_watts=spec.power.alpha_watts,
            total_slots=spec.total_slots,
        )

    @property
    def idle_share_watts(self) -> float:
        """``P_idle / mslot`` — the idle power billed to each running task."""
        return self.idle_watts / max(self.total_slots, 1)

    def sample_energy(self, sample: UtilizationSample) -> float:
        """Joules attributed to the task for one sample window."""
        return (self.idle_share_watts + self.alpha_watts * sample.utilization) * sample.duration

    def estimate(self, samples: Sequence[UtilizationSample]) -> float:
        """Eq. 2: total estimated energy of a task from its sample trace.

        :meth:`sample_energy` per window, folded left to right as
        :func:`~repro.core.floatsum.left_sum` folds.  Builtin ``sum()`` is
        not used: from Python 3.12 it compensates float sums, which would
        move E-Ant's feedback with the interpreter version.  The loop
        inlines both (it runs once per finished task); each term must stay
        :meth:`sample_energy`'s expression, float for float.
        """
        idle_share = self.idle_share_watts
        alpha = self.alpha_watts
        total = 0
        for utilization, duration in samples:
            total += (idle_share + alpha * utilization) * duration
        return total

    def estimate_from_average(self, avg_utilization: float, duration: float) -> float:
        """Closed form when only the average utilization is known.

        Exact for the affine law: the sum over windows collapses to the
        time-weighted mean utilization.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return (self.idle_share_watts + self.alpha_watts * avg_utilization) * duration


def samples_from_phases(
    phases: Sequence[Tuple[float, float]],
    delta_t: float = DEFAULT_DELTA_T,
    noise_factors: Optional[Callable[[int], Sequence[float]]] = None,
) -> List[UtilizationSample]:
    """Chop a multi-phase execution into heartbeat-window samples.

    Parameters
    ----------
    phases:
        ``(duration_s, utilization)`` pairs in execution order; utilization
        is the machine-wide fraction the task's process shows during that
        phase.
    delta_t:
        Sampling window (Hadoop heartbeat interval).
    noise_factors:
        Optional callable mapping a sample count ``n`` to ``n``
        multiplicative factors, one per sample — the measurement noise of
        Section IV-D, drawn in one call (e.g. one vectorized lognormal
        draw).  Noisy samples are clamped at 0.0.  ``None`` reports exact
        samples.

    Notes
    -----
    Windows are aligned to the task's start, as Hadoop's per-process CPU
    counters are.  A window spanning a phase boundary reports the
    time-weighted mean utilization of its parts, which is what a counter
    diff over the window would show.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    boundaries: List[Tuple[float, float]] = []  # (end_time, utilization)
    clock = 0.0
    for duration, utilization in phases:
        if duration < 0:
            raise ValueError("phase durations must be non-negative")
        if duration == 0:
            continue
        clock += duration
        boundaries.append((clock, utilization))
    total = clock
    # min()/len() calls are spelled out or hoisted: this loop runs once per
    # heartbeat window of every task.  The float operations are unchanged.
    last = len(boundaries) - 1
    horizon = total - 1e-12
    raw: List[Tuple[float, float]] = []  # (mean_util, duration) per window
    window_start = 0.0
    phase_index = 0
    while window_start < horizon:
        window_end = window_start + delta_t
        if total < window_end:
            window_end = total
        # Time-weighted mean utilization across phases inside the window.
        weighted = 0.0
        cursor = window_start
        index = phase_index
        stop = window_end - 1e-12
        while cursor < stop:
            phase_end, utilization = boundaries[index]
            segment_end = window_end if window_end < phase_end else phase_end
            weighted += (segment_end - cursor) * utilization
            cursor = segment_end
            if cursor >= phase_end - 1e-12 and index < last:
                index += 1
        duration = window_end - window_start
        raw.append((weighted / duration if duration > 0 else 0.0, duration))
        window_start = window_end
        # Advance the persistent phase pointer for the next window.
        while phase_index < last and boundaries[phase_index][0] <= window_start + 1e-12:
            phase_index += 1
    if noise_factors is not None:
        factors = noise_factors(len(raw))
        # One conversion for an ndarray, not float() per numpy scalar.
        factors = factors.tolist() if hasattr(factors, "tolist") else [float(f) for f in factors]
        samples = []
        for (mean_util, duration), factor in zip(raw, factors):
            noisy = mean_util * factor
            # max(0.0, noisy), and the NamedTuple built without its
            # Python-level __new__ (one per heartbeat window of every task).
            samples.append(_new_tuple(UtilizationSample, (noisy if noisy > 0.0 else 0.0, duration)))
        return samples
    return [UtilizationSample(mean_util, duration) for mean_util, duration in raw]

