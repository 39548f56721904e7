"""Node power management: the covering-subset baseline (Section VII).

The paper's related work contrasts E-Ant with *intrusive* energy managers
that power nodes down — Leverich & Kozyrakis's covering subset keeps one
replica of every block on a small always-on subset of machines and lets
the rest sleep when idle.  This module implements that mechanism so the
two approaches can be compared on the same simulated cluster:

* :class:`SleepPolicy` — a machine outside the covering subset powers down
  after ``idle_timeout`` seconds without resident tasks, paying
  ``sleep_watts`` instead of its idle floor; waking it to place a task
  records a ``wakeup_delay`` resume penalty, which is not simulated (no
  task's runtime includes it).
* :class:`PowerManager` — tracks per-machine state, integrates the saved
  idle energy, and exposes the wake/asleep surface the covering-subset
  scheduler uses.

E-Ant itself never powers nodes down (it is deliberately non-intrusive);
the comparison benchmark quantifies the availability/latency price the
covering subset pays for its deeper idle savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..cluster import Cluster

__all__ = ["SleepPolicy", "PowerManager"]


@dataclass(frozen=True)
class SleepPolicy:
    """Parameters of node sleep states.

    Defaults follow commodity S3 (suspend-to-RAM) figures: a few watts
    asleep, several-second resume.
    """

    idle_timeout: float = 60.0
    sleep_watts: float = 5.0
    wakeup_delay: float = 8.0

    def __post_init__(self) -> None:
        if self.idle_timeout < 0 or self.wakeup_delay < 0:
            raise ValueError("timeouts must be non-negative")
        if self.sleep_watts < 0:
            raise ValueError("sleep power must be non-negative")


@dataclass
class PowerManager:
    """Tracks sleep states and the energy they save.

    Machines in ``covering_subset`` never sleep (they hold the covering
    replica set, preserving data availability).  The manager is advisory:
    the scheduler must call :meth:`notify_idle` / :meth:`notify_busy` as
    tasks come and go, and consult :meth:`is_asleep` when placing work.
    :meth:`notify_busy` returns the wake-up delay for the caller to
    record; nothing here delays a task.
    """

    cluster: Cluster
    policy: SleepPolicy
    covering_subset: Set[int]
    _idle_since: Dict[int, float] = field(default_factory=dict)
    _asleep_since: Dict[int, float] = field(default_factory=dict)
    #: joules of idle-floor energy avoided by sleeping, per machine
    saved_joules: Dict[int, float] = field(default_factory=dict)
    #: (machine_id, slept_at, woke_at) history
    sleep_log: List[Tuple[int, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        unknown = self.covering_subset - set(self.cluster.machine_ids)
        if unknown:
            raise ValueError(f"covering subset references unknown machines: {unknown}")
        now = 0.0
        for machine_id in self.cluster.machine_ids:
            self._idle_since[machine_id] = now

    # -------------------------------------------------------------- queries
    def is_asleep(self, machine_id: int) -> bool:
        return machine_id in self._asleep_since

    def may_sleep(self, machine_id: int) -> bool:
        return machine_id not in self.covering_subset

    @property
    def total_saved_joules(self) -> float:
        return sum(self.saved_joules.values())

    # ----------------------------------------------------------- transitions
    def notify_busy(self, machine_id: int, now: float) -> float:
        """A task is being placed; wake the machine if needed.

        Returns the wake penalty (seconds) the placement would incur; it
        is recorded by the caller, not added to any task's runtime.
        """
        penalty = 0.0
        slept_at = self._asleep_since.pop(machine_id, None)
        if slept_at is not None:
            duration = now - slept_at
            idle_watts = self.cluster.machine(machine_id).spec.power.idle_watts
            saved = max(0.0, (idle_watts - self.policy.sleep_watts) * duration)
            self.saved_joules[machine_id] = self.saved_joules.get(machine_id, 0.0) + saved
            self.sleep_log.append((machine_id, slept_at, now))
            penalty = self.policy.wakeup_delay
        self._idle_since.pop(machine_id, None)
        return penalty

    def notify_idle(self, machine_id: int, now: float) -> None:
        """The machine's last resident task finished."""
        if machine_id not in self._asleep_since:
            self._idle_since.setdefault(machine_id, now)

    def tick(self, now: float) -> List[int]:
        """Advance the policy clock; returns machines put to sleep now."""
        newly_asleep: List[int] = []
        for machine_id, since in list(self._idle_since.items()):
            if not self.may_sleep(machine_id):
                continue
            if now - since >= self.policy.idle_timeout:
                self._idle_since.pop(machine_id)
                self._asleep_since[machine_id] = now
                newly_asleep.append(machine_id)
        return newly_asleep

    def finish(self, now: float) -> None:
        """Credit savings of machines still asleep at the end of the run."""
        for machine_id, slept_at in list(self._asleep_since.items()):
            duration = now - slept_at
            idle_watts = self.cluster.machine(machine_id).spec.power.idle_watts
            saved = max(0.0, (idle_watts - self.policy.sleep_watts) * duration)
            self.saved_joules[machine_id] = self.saved_joules.get(machine_id, 0.0) + saved
            self.sleep_log.append((machine_id, slept_at, now))
            self._asleep_since.pop(machine_id)


def pick_covering_subset(cluster: Cluster, fraction: float = 0.3) -> Set[int]:
    """A simple covering subset: the most energy-proportional machines.

    Leverich & Kozyrakis keep one replica of every block on the subset;
    in this simulation HDFS placement is re-targeted at the subset, so
    picking the machines with the best full-load efficiency (work per
    watt) is the sensible static choice.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, round(fraction * len(cluster)))

    def efficiency(machine) -> float:
        spec = machine.spec
        return (spec.cores * spec.cpu_speed) / spec.power.full_load_watts

    ranked = sorted(cluster, key=efficiency, reverse=True)
    return {machine.machine_id for machine in ranked[:count]}
