"""LATE-style speculative execution (Zaharia et al., OSDI'08) — extension.

The paper discusses LATE as related work: a heterogeneity-aware scheduler
that improves completion time by re-executing likely-stragglers on fast
machines.  This implementation layers speculation on top of fair sharing:

* when a heartbeat finds no pending work for a free map slot, the slot may
  run a *speculative copy* of the running map attempt with the longest
  estimated time-to-finish, provided the heartbeating machine is in the
  faster half of the cluster;
* whichever attempt finishes first wins; the loser is killed.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..hadoop.job import Task, TaskReport, TaskState
from ..hadoop.tasktracker import TrackerStatus
from .base import Scheduler
from .fair import FairScheduler

__all__ = ["LateScheduler"]

#: Share of a job's maps (at least one) that may get a speculative copy.
MAX_SPECULATIVE_FRACTION = 0.1
#: A map is a straggler once it has run over 1 / this times its job's mean map time.
SLOWNESS_THRESHOLD = 0.5


class LateScheduler(FairScheduler):
    """Fair sharing plus LATE speculative re-execution of stragglers."""

    name = "late"
    # Speculation can fill an idle slot with no pending work anywhere.
    may_assign = Scheduler.may_assign

    def __init__(self) -> None:
        super().__init__()
        self._speculated: Set[str] = set()
        self._mean_map_duration: dict = {}
        self._map_duration_counts: dict = {}
        self._median_speed: Optional[float] = None

    def bind(self, jobtracker) -> None:
        super().bind(jobtracker)
        speeds = sorted(m.spec.cpu_speed for m in jobtracker.cluster)
        self._median_speed = speeds[len(speeds) // 2]

    # ------------------------------------------------------------- telemetry
    def on_task_completed(self, report: TaskReport) -> None:
        super().on_task_completed(report)
        if report.kind.value == "map":
            count = self._map_duration_counts.get(report.job_id, 0)
            mean = self._mean_map_duration.get(report.job_id, 0.0)
            self._mean_map_duration[report.job_id] = (
                (mean * count + report.duration) / (count + 1)
            )
            self._map_duration_counts[report.job_id] = count + 1
        # Kill the losing attempts of a speculated task.
        job = self.jt.jobs.get(report.job_id)
        if job is None:
            return
        for task in job.maps:
            if task.task_id != report.task_id:
                continue
            for attempt in task.attempts:
                if attempt.finish_time is None:
                    tracker = self.jt.trackers.get(attempt.machine_id)
                    if tracker is not None:
                        tracker.kill_attempt(attempt)

    def on_job_removed(self, job) -> None:
        super().on_job_removed(job)
        self._mean_map_duration.pop(job.job_id, None)
        self._map_duration_counts.pop(job.job_id, None)

    # ------------------------------------------------------------ assignment
    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments = super().select_tasks(status)
        maps_assigned = sum(1 for t in assignments if t.is_map)
        spare = status.free_map_slots - maps_assigned
        if spare <= 0:
            return assignments
        machine = self.jt.cluster.machine(status.machine_id)
        if machine.spec.cpu_speed < (self._median_speed or 0.0):
            return assignments  # LATE only speculates on fast machines
        for _ in range(spare):
            candidate = self._pick_straggler(status.machine_id)
            if candidate is None:
                break
            self._speculated.add(candidate.task_id)
            if self.tracer.enabled:
                running = candidate.attempts[-1] if candidate.attempts else None
                mean = self._mean_map_duration.get(candidate.job.job_id, 0.0)
                self.trace_scheduler_event(
                    detail="speculation",
                    task_id=candidate.task_id,
                    job_id=candidate.job.job_id,
                    machine_id=status.machine_id,
                    straggler_machine=None if running is None else running.machine_id,
                    overrun=(
                        (self.jt.sim.now - running.start_time) / mean
                        if running is not None and mean
                        else None
                    ),
                )
            assignments.append(candidate)
        return assignments

    def _pick_straggler(self, machine_id: int) -> Optional[Task]:
        """The running map with the worst estimated time-to-finish."""
        now = self.jt.sim.now
        worst: Optional[Task] = None
        worst_overrun = 1.0 / SLOWNESS_THRESHOLD
        for job in self.jt.active_jobs:
            mean = self._mean_map_duration.get(job.job_id)
            if not mean:
                continue
            budget = len(job.maps) * MAX_SPECULATIVE_FRACTION
            already = sum(1 for t in self._speculated if t.startswith(f"j{job.job_id}-m"))
            if already >= max(1.0, budget):
                continue
            for task in job.maps:
                if task.state is not TaskState.RUNNING:
                    continue
                if task.task_id in self._speculated:
                    continue
                attempt = task.attempts[-1] if task.attempts else None
                if attempt is None or attempt.machine_id == machine_id:
                    continue
                overrun = (now - attempt.start_time) / mean
                if overrun > worst_overrun:
                    worst_overrun = overrun
                    worst = task
        return worst
