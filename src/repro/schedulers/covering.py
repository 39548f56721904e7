"""Covering-subset scheduler (Leverich & Kozyrakis, HotPower'09 — §VII).

An *intrusive* energy baseline: all block replicas needed for availability
live on a small always-on covering subset; the remaining machines sleep
when idle and are only woken when the covering subset is saturated.  Each
wake-up's resume delay is recorded in :attr:`wake_events`, not simulated:
no task's runtime includes it.

The scheduler composes fair sharing (job ordering) with subset-first
placement, and drives a :class:`~repro.energy.powermgmt.PowerManager`
whose saved idle energy is subtracted from the cluster total by the
comparison benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..energy.powermgmt import PowerManager, SleepPolicy, pick_covering_subset
from ..hadoop.job import Task, TaskReport
from ..hadoop.tasktracker import TrackerStatus
from .base import Scheduler
from .fair import FairScheduler

__all__ = ["CoveringSubsetScheduler"]


class CoveringSubsetScheduler(FairScheduler):
    """Fair sharing restricted to awake machines, covering subset first."""

    name = "covering-subset"
    # Every heartbeat ticks the power manager, work or not.
    may_assign = Scheduler.may_assign

    def __init__(
        self,
        subset_fraction: float = 0.3,
        policy: Optional[SleepPolicy] = None,
        covering_subset: Optional[Set[int]] = None,
    ) -> None:
        super().__init__()
        self.subset_fraction = subset_fraction
        self.policy = policy or SleepPolicy()
        self._explicit_subset = covering_subset
        self.power: Optional[PowerManager] = None

    # ------------------------------------------------------------- lifecycle
    def bind(self, jobtracker) -> None:
        super().bind(jobtracker)
        subset = (
            set(self._explicit_subset)
            if self._explicit_subset is not None
            else pick_covering_subset(jobtracker.cluster, self.subset_fraction)
        )
        self.power = PowerManager(
            cluster=jobtracker.cluster, policy=self.policy, covering_subset=subset
        )

    def on_task_completed(self, report: TaskReport) -> None:
        super().on_task_completed(report)
        self._refresh_idle_state(report.machine_id)

    def _refresh_idle_state(self, machine_id: int) -> None:
        assert self.power is not None
        tracker = self.jt.trackers.get(machine_id)
        if tracker is None:
            return
        if tracker.running_maps == 0 and tracker.running_reduces == 0:
            self.power.notify_idle(machine_id, self.jt.sim.now)

    # ------------------------------------------------------------ assignment
    def _cluster_pressure(self) -> bool:
        """Is there more pending work than the awake machines can hold?"""
        assert self.power is not None
        pending = sum(
            job.pending_map_count + job.pending_reduce_count
            for job in self.jt.active_jobs
        )
        awake_slots = sum(
            machine.spec.total_slots
            for machine in self.jt.cluster
            if not self.power.is_asleep(machine.machine_id)
        )
        return pending > awake_slots

    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assert self.power is not None
        now = self.jt.sim.now
        self.power.tick(now)
        machine_id = status.machine_id

        if self.power.is_asleep(machine_id) and not self._cluster_pressure():
            # Stay asleep: the covering subset can absorb the current load.
            if self.tracer.enabled:
                self.trace_scheduler_event(detail="stay-asleep", machine_id=machine_id)
            return []

        assignments = super().select_tasks(status)
        if assignments:
            penalty = self.power.notify_busy(machine_id, now)
            if penalty > 0:
                if self.tracer.enabled:
                    self.trace_scheduler_event(
                        detail="wake", machine_id=machine_id, penalty_s=penalty
                    )
                # The resume delay is recorded for the benchmark's latency
                # accounting, not simulated: the tasks start at once.
                self.wake_events.append((now, machine_id, penalty))
        elif status.running_maps == 0 and status.running_reduces == 0:
            self.power.notify_idle(machine_id, now)
        return assignments

    # ---------------------------------------------------------------- stats
    @property
    def wake_events(self) -> List:
        if not hasattr(self, "_wake_events"):
            self._wake_events = []
        return self._wake_events

    def energy_summary(self, now: float) -> dict:
        """Saved idle joules and sleep statistics (benchmark surface)."""
        assert self.power is not None
        self.power.finish(now)
        return {
            "saved_joules": self.power.total_saved_joules,
            "sleep_intervals": len(self.power.sleep_log),
            "wake_events": len(self.wake_events),
            "covering_subset": sorted(self.power.covering_subset),
        }
