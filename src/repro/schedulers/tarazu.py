"""Tarazu: communication-aware load balancing (Ahmad et al., ASPLOS'12).

Tarazu improves MapReduce on heterogeneous clusters by (i) balancing map
work in proportion to machine compute capability, so slow nodes do not
straggle the map phase and trigger bursty remote traffic, and (ii) placing
shuffle-heavy reduces on well-provisioned nodes.  It optimizes *completion
time*, not energy — the property the paper's Fig. 8 comparison relies on
(Tarazu beats Fair on JCT and slightly on energy via shorter makespan, but
E-Ant wins on energy).

This reimplementation captures those two mechanisms on top of fair job
ordering:

* per-machine map quota proportional to ``cores * cpu_speed``;
* reduce placement weighted by IO capability (``io_speed``), so the
  shuffle lands on machines that drain it fastest.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.floatsum import left_sum
from ..hadoop.job import Job, Task
from ..hadoop.tasktracker import TrackerStatus
from .fair import FairScheduler

__all__ = ["TarazuScheduler"]


class TarazuScheduler(FairScheduler):
    """Capability-proportional load balancing over fair sharing."""

    name = "tarazu"

    def __init__(self, quota_slack: float = 0.02) -> None:
        super().__init__()
        if quota_slack < 0:
            raise ValueError("quota slack must be non-negative")
        self.quota_slack = quota_slack
        #: maps launched per (job_id, machine_id), for quota accounting.
        self._maps_launched: Dict[int, Dict[int, int]] = {}
        self._compute_weights: Dict[int, float] = {}
        self._io_rank: Dict[int, float] = {}

    # ------------------------------------------------------------- lifecycle
    def bind(self, jobtracker) -> None:
        super().bind(jobtracker)
        cluster = jobtracker.cluster
        total = left_sum(m.spec.cores * m.spec.cpu_speed for m in cluster)
        self._compute_weights = {
            m.machine_id: (m.spec.cores * m.spec.cpu_speed) / total for m in cluster
        }
        max_io = max(m.spec.io_speed for m in cluster)
        self._io_rank = {m.machine_id: m.spec.io_speed / max_io for m in cluster}

    def on_job_added(self, job: Job) -> None:
        self._maps_launched[job.job_id] = {}

    def on_job_removed(self, job: Job) -> None:
        self._maps_launched.pop(job.job_id, None)

    # ---------------------------------------------------------- map balance
    def _within_quota(self, job: Job, machine_id: int) -> bool:
        """Communication-aware check: is this machine under its map quota?

        Machine ``m`` should run about ``w_m`` of the job's maps; the
        slack term keeps early waves from deadlocking on rounding.
        """
        launched = self._maps_launched.get(job.job_id, {})
        total_launched = sum(launched.values())
        if total_launched == 0:
            return True
        weight = self._compute_weights[machine_id]
        quota = weight * (total_launched + 1) + self.quota_slack * total_launched + 1
        return launched.get(machine_id, 0) < quota

    def _note_map_launch(self, job: Job, machine_id: int) -> None:
        per_machine = self._maps_launched.setdefault(job.job_id, {})
        per_machine[machine_id] = per_machine.get(machine_id, 0) + 1
        if self.tracer.enabled:
            self.trace_scheduler_event(
                detail="map-quota",
                job_id=job.job_id,
                machine_id=machine_id,
                quota_weight=self._compute_weights[machine_id],
                launched_here=per_machine[machine_id],
                launched_total=sum(per_machine.values()),
            )

    # ------------------------------------------------------------ assignment
    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments: List[Task] = []
        machine_id = status.machine_id
        map_slots, reduce_slots = self.jt.cluster.total_slots()

        for _ in range(status.free_map_slots):
            candidates = self._deficit_order(
                self.jobs_with_pending_maps(), map_slots, lambda j: j.running_maps
            )
            task = None
            # Tarazu balances map *compute* in proportion to capability, so
            # the quota binds local and remote assignments alike; locality
            # only orders candidates within the quota.
            for job in candidates:
                if not self._within_quota(job, machine_id):
                    continue
                if job.local_pending_map(machine_id) is not None:
                    task = job.take_map(machine_id, prefer_local=True)
                    self._note_map_launch(job, machine_id)
                    break
            if task is None:
                for job in candidates:
                    if not self._within_quota(job, machine_id):
                        continue
                    task = job.take_map(machine_id, prefer_local=True)
                    if task is not None:
                        self._note_map_launch(job, machine_id)
                        break
            if task is None:
                break
            assignments.append(task)

        # Reduces: only accept on this machine in proportion to its IO rank —
        # a probabilistic form of shuffle-aware placement that still drains
        # the queue (rank is never zero).
        for _ in range(status.free_reduce_slots):
            candidates = self._deficit_order(
                self.jobs_with_schedulable_reduces(),
                reduce_slots,
                lambda j: j.running_reduces,
            )
            task = None
            io_rank = self._io_rank[machine_id]
            for job in candidates:
                # Shuffle-heavy jobs are choosier about reduce placement.
                selectivity = job.profile.map_output_ratio
                if selectivity >= 0.5 and io_rank < 0.75 and job.pending_reduce_count > 1:
                    continue
                task = job.take_reduce()
                if task is not None:
                    if self.tracer.enabled:
                        self.trace_assignment(
                            task,
                            machine_id=machine_id,
                            io_rank=io_rank,
                            selectivity=selectivity,
                        )
                    break
            if task is None:
                break
            assignments.append(task)

        return assignments
