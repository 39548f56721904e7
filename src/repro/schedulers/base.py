"""The scheduler interface every task-assignment policy implements.

A scheduler is the pluggable decision layer of the JobTracker: it is
notified of job arrivals/departures and task completions, is ticked every
control interval, and — the heart of it — answers each TaskTracker
heartbeat with the tasks to launch (``select_tasks``).  Schedulers claim
tasks from job pending-queues via ``Job.take_map`` / ``Job.take_reduce``,
which keeps all state transitions inside :class:`~repro.hadoop.job.Job`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, List, Optional

from ..hadoop.job import Job, Task, TaskReport
from ..hadoop.tasktracker import TrackerStatus
from ..observability.tracer import NULL_TRACER, EventType

if TYPE_CHECKING:  # pragma: no cover
    from ..hadoop.jobtracker import JobTracker

__all__ = ["Scheduler"]


class Scheduler(abc.ABC):
    """Base class for task-assignment policies."""

    #: Human-readable policy name (used in reports and figures).
    name = "base"

    def __init__(self) -> None:
        self.jobtracker: Optional["JobTracker"] = None
        #: Trace sink, inherited from the JobTracker at bind time.  All
        #: emission helpers are no-ops while ``tracer.enabled`` is False.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------- lifecycle
    def bind(self, jobtracker: "JobTracker") -> None:
        """Attach to the JobTracker (called once, by the JobTracker)."""
        self.jobtracker = jobtracker
        self.tracer = jobtracker.tracer

    @property
    def jt(self) -> "JobTracker":
        if self.jobtracker is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a JobTracker")
        return self.jobtracker

    # ----------------------------------------------------------------- hooks
    def on_job_added(self, job: Job) -> None:
        """A job was admitted."""

    def on_job_removed(self, job: Job) -> None:
        """A job finished (all tasks complete)."""

    def on_task_completed(self, report: TaskReport) -> None:
        """A task attempt succeeded."""

    def on_control_interval(self, now: float) -> None:
        """Periodic tick (the paper's 5-minute control interval)."""

    def on_machine_added(self, machine: Any) -> None:
        """A brand-new machine joined the cluster mid-run.

        Called by the fault injector after the machine is commissioned and
        its TaskTracker started.  Baselines that read the cluster live need
        no action; policies that cache fleet state must refresh it here.
        """

    def on_machine_removed(self, machine: Any) -> None:
        """A machine left the cluster for good (decommission)."""

    # ------------------------------------------------------------ assignment
    @abc.abstractmethod
    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        """Tasks to launch on the heartbeating tracker.

        Must return at most ``status.free_map_slots`` maps and
        ``status.free_reduce_slots`` reduces, claimed from their jobs'
        pending queues.
        """

    def may_assign(self) -> bool:
        """Whether any heartbeat could be handed a task right now.

        ``False`` promises that ``select_tasks`` is a pure no-op for every
        tracker until new work appears (a submit, a requeue, or a job's
        reduces crossing the slowstart gate).  A policy that overrides
        this also promises the same for a tracker with no free slot until
        one frees.  The JobTracker relies on both to let TaskTrackers
        skip heartbeats that cannot assign.  The default ``True`` never
        lets a tracker skip one: it is for policies with per-heartbeat
        side effects (speculation, power ticks, RNG draws).
        """
        return True

    def has_assignable_work(self) -> bool:
        """Whether any active job has a pending map or a schedulable reduce."""
        slowstart = self.jt.config.reduce_slowstart
        return any(
            job.pending_map_count or job.reduces_schedulable(slowstart)
            for job in self.jt.active_jobs
        )

    # ----------------------------------------------------------- observability
    def trace_scheduler_event(self, **data: Any) -> None:
        """Emit a policy-specific annotation (``scheduler.event``).

        Baselines call this at their decision points with whatever signal
        drove the choice (queue rank, deficit, quota headroom, speculation
        overrun, ...).  With tracing off this is one attribute check.
        """
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.SCHEDULER_EVENT, self.jt.sim.now, scheduler=self.name, **data
            )

    def trace_assignment(self, task: Task, **detail: Any) -> None:
        """Emit a ``scheduler.event`` describing one task assignment."""
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.SCHEDULER_EVENT,
                self.jt.sim.now,
                scheduler=self.name,
                task_id=task.task_id,
                job_id=task.job.job_id,
                kind=task.kind.value,
                **detail,
            )

    # ----------------------------------------------------------- shared bits
    def jobs_with_pending_maps(self) -> List[Job]:
        return [job for job in self.jt.active_jobs if job.pending_map_count > 0]

    def jobs_with_schedulable_reduces(self) -> List[Job]:
        slowstart = self.jt.config.reduce_slowstart
        return [job for job in self.jt.active_jobs if job.reduces_schedulable(slowstart)]

    def total_cluster_slots(self) -> int:
        """``S_pool`` of Eq. 7 — all slots in the cluster."""
        maps, reduces = self.jt.cluster.total_slots()
        return maps + reduces

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
