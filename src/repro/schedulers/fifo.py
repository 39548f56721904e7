"""Hadoop's default FIFO scheduler.

Jobs are served strictly in submission order; every free slot is filled by
the oldest job with available work, preferring node-local map tasks.  This
is "Hadoop's default behavior" that E-Ant follows during its first control
interval, and the heterogeneity-agnostic default the energy-saving curves
of Figs. 10 and 12 are measured against.
"""

from __future__ import annotations

from typing import List

from ..hadoop.job import Task
from ..hadoop.tasktracker import TrackerStatus
from .base import Scheduler

__all__ = ["FifoScheduler"]


class FifoScheduler(Scheduler):
    """Strict job-arrival-order assignment."""

    name = "fifo"

    def may_assign(self) -> bool:
        return self.has_assignable_work()

    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments: List[Task] = []
        machine_id = status.machine_id

        for _ in range(status.free_map_slots):
            task = None
            for rank, job in enumerate(self.jobs_with_pending_maps()):
                task = job.take_map(machine_id, prefer_local=True)
                if task is not None:
                    if self.tracer.enabled:
                        self.trace_assignment(task, machine_id=machine_id, queue_rank=rank)
                    break
            if task is None:
                break
            assignments.append(task)

        for _ in range(status.free_reduce_slots):
            task = None
            for rank, job in enumerate(self.jobs_with_schedulable_reduces()):
                task = job.take_reduce()
                if task is not None:
                    if self.tracer.enabled:
                        self.trace_assignment(task, machine_id=machine_id, queue_rank=rank)
                    break
            if task is None:
                break
            assignments.append(task)

        return assignments
