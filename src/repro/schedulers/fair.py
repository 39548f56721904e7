"""The Hadoop Fair Scheduler baseline.

Slots are shared so every active job gets an equal share (single-user
deployment, equal weights — the setting of Section IV-C.4 and the Fig. 8
comparison).  On each heartbeat the most deficient job — the one whose
running-task count is furthest below its fair share — is served first,
preferring node-local maps.  The policy is deliberately
heterogeneity-oblivious: any free slot on any machine is filled if work
exists, which is exactly the behaviour E-Ant's gated assignment improves
on.
"""

from __future__ import annotations

from typing import List

from ..hadoop.job import Job, Task
from ..hadoop.tasktracker import TrackerStatus
from .base import Scheduler

__all__ = ["FairScheduler"]


class FairScheduler(Scheduler):
    """Deficit-based fair sharing across active jobs."""

    name = "fair"

    # ------------------------------------------------------------ fair share
    def fair_share(self, kind_slots: int, active: int) -> float:
        """Per-job fair share of a slot pool (equal weights)."""
        if active == 0:
            return float(kind_slots)
        return kind_slots / active

    def _deficit_order(self, jobs: List[Job], kind_slots: int, running_of) -> List[Job]:
        """Jobs sorted most-starved first (running / fair_share ascending).

        Ties break by submission order, matching the Hadoop implementation.
        """
        active = len(self.jt.active_jobs)
        share = max(self.fair_share(kind_slots, active), 1e-9)
        return sorted(jobs, key=lambda job: (running_of(job) / share, job.job_id))

    # ------------------------------------------------------------ assignment
    def may_assign(self) -> bool:
        return self.has_assignable_work()

    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments: List[Task] = []
        machine_id = status.machine_id
        map_slots, reduce_slots = self.jt.cluster.total_slots()

        for _ in range(status.free_map_slots):
            candidates = self._deficit_order(
                self.jobs_with_pending_maps(), map_slots, lambda j: j.running_maps
            )
            task = None
            local = True
            # First pass: node-local task from the most-starved job offering one.
            for job in candidates:
                if job.has_local_map(machine_id):
                    task = job.take_map(machine_id, prefer_local=True)
                    break
            # Second pass: any pending map, most-starved first.
            if task is None:
                local = False
                for job in candidates:
                    task = job.take_map(machine_id, prefer_local=True)
                    if task is not None:
                        break
            if task is None:
                break
            if self.tracer.enabled:
                share = max(self.fair_share(map_slots, len(self.jt.active_jobs)), 1e-9)
                self.trace_assignment(
                    task,
                    machine_id=machine_id,
                    local_pass=local,
                    deficit=task.job.running_maps / share,
                )
            assignments.append(task)

        for _ in range(status.free_reduce_slots):
            candidates = self._deficit_order(
                self.jobs_with_schedulable_reduces(),
                reduce_slots,
                lambda j: j.running_reduces,
            )
            task = None
            for job in candidates:
                task = job.take_reduce()
                if task is not None:
                    break
            if task is None:
                break
            if self.tracer.enabled:
                share = max(self.fair_share(reduce_slots, len(self.jt.active_jobs)), 1e-9)
                self.trace_assignment(
                    task,
                    machine_id=machine_id,
                    deficit=task.job.running_reduces / share,
                )
            assignments.append(task)

        return assignments
