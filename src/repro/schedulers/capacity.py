"""The Hadoop Capacity Scheduler baseline.

Section VII names the Capacity Scheduler alongside the Fair Scheduler as
the standard multi-tenant alternatives to FIFO.  Capacity partitions the
slot pool into named *queues*, each with a guaranteed fraction; within a
queue, jobs run FIFO.  Queues may borrow idle capacity from each other
(elasticity), which is what distinguishes it from static partitioning.

Jobs are routed to queues by their ``JobSpec.pool`` name; unknown pools
fall into ``"default"``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..hadoop.job import Job, Task
from ..hadoop.tasktracker import TrackerStatus
from .base import Scheduler

__all__ = ["CapacityScheduler"]


class CapacityScheduler(Scheduler):
    """Queue-based capacity sharing with elastic borrowing.

    Parameters
    ----------
    capacities:
        Mapping of queue name to guaranteed fraction of each slot pool.
        Fractions are normalized; a ``"default"`` queue is added with the
        leftover share if absent.
    elastic:
        Whether queues may exceed their guarantee using otherwise-idle
        slots (Hadoop's default behaviour).
    """

    name = "capacity"

    def __init__(
        self,
        capacities: Optional[Mapping[str, float]] = None,
        elastic: bool = True,
    ) -> None:
        super().__init__()
        raw = dict(capacities) if capacities else {"default": 1.0}
        if any(v <= 0 for v in raw.values()):
            raise ValueError("queue capacities must be positive")
        total = sum(raw.values())
        self.capacities: Dict[str, float] = {q: v / total for q, v in raw.items()}
        if "default" not in self.capacities:
            # Reserve a sliver so unrouted jobs are never stuck.
            self.capacities = {q: v * 0.95 for q, v in self.capacities.items()}
            self.capacities["default"] = 0.05
        self.elastic = elastic

    # -------------------------------------------------------------- routing
    def queue_of(self, job: Job) -> str:
        pool = job.spec.pool
        return pool if pool in self.capacities else "default"

    def _queue_usage(self, kind: str) -> Dict[str, int]:
        usage: Dict[str, int] = {q: 0 for q in self.capacities}
        for job in self.jt.active_jobs:
            running = job.running_maps if kind == "map" else job.running_reduces
            usage[self.queue_of(job)] += running
        return usage

    def _queues_by_priority(self, kind: str, pool_slots: int) -> List[str]:
        """Queues ordered by how far below their guarantee they are."""
        usage = self._queue_usage(kind)
        return sorted(
            self.capacities,
            key=lambda q: usage[q] / max(self.capacities[q] * pool_slots, 1e-9),
        )

    def _take_from_queue(self, queue: str, kind: str, machine_id: int) -> Optional[Task]:
        """FIFO within the queue (oldest job first)."""
        for job in self.jt.active_jobs:
            if self.queue_of(job) != queue:
                continue
            if kind == "map":
                if job.pending_map_count == 0:
                    continue
                task = job.take_map(machine_id, prefer_local=True)
            else:
                if not job.reduces_schedulable(self.jt.config.reduce_slowstart):
                    continue
                task = job.take_reduce()
            if task is not None:
                return task
        return None

    # ------------------------------------------------------------ assignment
    def may_assign(self) -> bool:
        return self.has_assignable_work()

    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments: List[Task] = []
        map_slots, reduce_slots = self.jt.cluster.total_slots()

        for kind, free, pool in (
            ("map", status.free_map_slots, map_slots),
            ("reduce", status.free_reduce_slots, reduce_slots),
        ):
            for _ in range(free):
                task = None
                usage = self._queue_usage(kind)
                for queue in self._queues_by_priority(kind, pool):
                    guarantee = self.capacities[queue] * pool
                    if not self.elastic and usage[queue] >= guarantee:
                        continue
                    task = self._take_from_queue(queue, kind, status.machine_id)
                    if task is not None:
                        if self.tracer.enabled:
                            self.trace_assignment(
                                task,
                                machine_id=status.machine_id,
                                queue=queue,
                                queue_used=usage[queue],
                                queue_guarantee=guarantee,
                                borrowed=usage[queue] >= guarantee,
                            )
                        break
                if task is None:
                    break
                assignments.append(task)
        return assignments
