"""The simulated wall-power meter (the paper's WattsUP Pro stand-in).

Each :class:`~repro.cluster.machine.Machine` already integrates its own
power law exactly; :class:`ClusterMeter` adds the experimenter's view —
periodic (utilization, power) readings per machine that system
identification and the Fig. 1 motivation study consume, plus cluster-wide
roll-ups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from ..cluster import Cluster
from ..simulation import Simulator

__all__ = ["MeterReading", "ClusterMeter"]


@dataclass(frozen=True)
class MeterReading:
    """One sampled observation of one machine."""

    time: float
    machine_id: int
    utilization: float
    power_watts: float
    cumulative_joules: float


@dataclass
class ClusterMeter:
    """Periodic sampler of every machine's power draw.

    Start with :meth:`attach`; readings accumulate in :attr:`readings`.

    Parameters
    ----------
    cluster:
        The cluster being metered.
    sample_interval:
        Seconds between readings (the WattsUP Pro logs at 1 Hz; the default
        3 s matches the heartbeat cadence and keeps traces small).
    """

    cluster: Cluster
    sample_interval: float = 3.0
    readings: List[MeterReading] = field(default_factory=list)
    _process: Optional[object] = field(default=None, repr=False)

    def attach(self, sim: Simulator, stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Begin sampling on ``sim``.

        ``stop_when`` is checked before each sample; when it returns True
        the sampling process exits (e.g. ``lambda: jobtracker.is_shutdown``
        lets the simulation drain once the workload completes).
        """
        if self.sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        self._process = sim.process(self._run(sim, stop_when), name="cluster-meter")

    def _run(self, sim: Simulator, stop_when: Optional[Callable[[], bool]]) -> Generator:
        while stop_when is None or not stop_when():
            yield sim.timeout(self.sample_interval)
            self.sample(sim.now)

    def sample(self, now: float) -> None:
        """Take one reading of every machine.

        Each sample *closes* every machine's energy window (the reading must
        show the joules integrated up to ``now``); the close is cheap when
        the machine already advanced at this timestamp because the
        zero-length-window fast path in ``Machine._advance`` skips the
        integrator entirely.
        """
        append = self.readings.append
        for machine in self.cluster:
            machine.finish()  # close the energy window at `now`
            energy = machine.energy
            append(
                MeterReading(
                    time=now,
                    machine_id=machine.machine_id,
                    utilization=energy.utilization,
                    power_watts=machine.power_watts(),
                    cumulative_joules=energy.total_joules,
                )
            )

    # -------------------------------------------------------------- analysis
    def series_for(self, machine_id: int) -> List[MeterReading]:
        """All readings of one machine, in time order."""
        return [r for r in self.readings if r.machine_id == machine_id]

    def identification_data(self, machine_id: int) -> Tuple[List[float], List[float]]:
        """(utilizations, powers) pairs for least-squares fitting."""
        series = self.series_for(machine_id)
        return [r.utilization for r in series], [r.power_watts for r in series]
