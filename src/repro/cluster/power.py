"""Affine CPU-utilization power models.

The paper's task-level energy model (Eq. 2) assumes each machine's power
draw is affine in CPU utilization::

    P(u) = P_idle + alpha * u,      u in [0, 1]

where ``u`` is the machine-wide CPU utilization (busy cores / cores) and
``alpha`` is the dynamic power range (watts at full load above idle).  This
module provides the law itself plus the ground-truth integrator used by the
simulated wall-power meter (the stand-in for the WattsUP Pro of Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["PowerModel", "EnergyAccumulator"]


@dataclass(frozen=True)
class PowerModel:
    """Affine power law of one machine type.

    Parameters
    ----------
    idle_watts:
        Power drawn with zero CPU activity (the machine is on but idle).
    alpha_watts:
        Additional power at 100 % CPU utilization, so full-load power is
        ``idle_watts + alpha_watts``.
    """

    idle_watts: float
    alpha_watts: float

    def __post_init__(self) -> None:
        if self.idle_watts < 0 or self.alpha_watts < 0:
            raise ValueError("power parameters must be non-negative")

    def power(self, utilization: float) -> float:
        """Instantaneous power (W) at ``utilization`` in [0, 1].

        Values outside [0, 1] are clamped: a machine cannot consume less
        than idle nor more than full-load power under this law.
        """
        u = min(max(utilization, 0.0), 1.0)
        return self.idle_watts + self.alpha_watts * u

    @property
    def full_load_watts(self) -> float:
        """Power at 100 % utilization."""
        return self.idle_watts + self.alpha_watts

    def dynamic_energy(self, utilization: float, duration: float) -> float:
        """Joules attributable to CPU activity over ``duration`` seconds."""
        u = min(max(utilization, 0.0), 1.0)
        return self.alpha_watts * u * duration

    def idle_energy(self, duration: float) -> float:
        """Joules of the idle floor over ``duration`` seconds."""
        return self.idle_watts * duration


@dataclass
class EnergyAccumulator:
    """Piecewise-constant integrator of one machine's power draw.

    The machine reports utilization *changes* (task start/stop); between
    changes the utilization — hence power — is constant, so the integral is
    exact.  The idle and dynamic components are tracked separately to
    reproduce the idle/workload power split of Fig. 1(b).
    """

    model: PowerModel
    _last_time: float = 0.0
    _utilization: float = 0.0
    idle_joules: float = 0.0
    dynamic_joules: float = 0.0
    _trace: List[Tuple[float, float]] = field(default_factory=list)
    keep_trace: bool = False
    #: multiplier on the dynamic (alpha) term — thermal throttling draws
    #: proportionally less switching power at reduced clocks
    dynamic_scale: float = 1.0
    #: False once the machine is powered off (decommission): no further
    #: idle or dynamic joules accrue
    powered: bool = True

    @property
    def utilization(self) -> float:
        """Current machine-wide CPU utilization in [0, 1]."""
        return self._utilization

    @property
    def total_joules(self) -> float:
        """Total energy consumed so far (idle + dynamic)."""
        return self.idle_joules + self.dynamic_joules

    def advance(self, now: float, new_utilization: float) -> None:
        """Integrate up to ``now`` then switch to ``new_utilization``."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        duration = now - self._last_time
        if duration > 0 and self.powered:
            # ``idle_energy``/``dynamic_energy`` inlined: same expressions in
            # the same order, minus two method calls on the hottest energy
            # path.  ``_utilization`` is stored clamped, so the re-clamp
            # inside ``dynamic_energy`` would be a bit-exact no-op.
            model = self.model
            self.idle_joules += model.idle_watts * duration
            dynamic = model.alpha_watts * self._utilization * duration
            if self.dynamic_scale != 1.0:
                dynamic *= self.dynamic_scale
            self.dynamic_joules += dynamic
        self._last_time = now
        self._utilization = min(max(new_utilization, 0.0), 1.0)
        if self.keep_trace:
            self._trace.append((now, self._utilization))

    def power_off(self, now: float) -> None:
        """Close the window at ``now`` and stop accruing energy entirely.

        Used for decommissioned machines: the accumulated joules stay in
        the run's totals but the machine draws nothing from here on.
        """
        self.finish(now)
        self.powered = False

    def finish(self, now: float) -> None:
        """Close the integration window at ``now`` without changing state."""
        self.advance(now, self._utilization)

    def projected_joules(self, now: float) -> float:
        """Total joules as if the window closed at ``now``, without closing it.

        Read-only companion to :meth:`finish` for observers (trace
        snapshots) that must not perturb the integrator's float state:
        splitting a constant-utilization window is exact in real
        arithmetic but changes the rounding of the running sums.
        """
        if not self.powered:
            return self.total_joules
        duration = max(0.0, now - self._last_time)
        dynamic = self.model.dynamic_energy(self._utilization, duration)
        if self.dynamic_scale != 1.0:
            dynamic *= self.dynamic_scale
        return self.total_joules + self.model.idle_energy(duration) + dynamic

    @property
    def trace(self) -> List[Tuple[float, float]]:
        """Recorded (time, utilization) change points (if ``keep_trace``)."""
        return list(self._trace)
