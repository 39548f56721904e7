"""Runtime job/task entities of the simulated Hadoop framework.

A submitted :class:`~repro.workloads.profiles.JobSpec` becomes a live
:class:`Job` holding :class:`Task` objects (one per map block plus the
reduces).  Each execution of a task on a machine is a :class:`TaskAttempt`;
its completion produces a :class:`TaskReport` — the exact record a modified
TaskTracker ships to the JobTracker in the paper's implementation
(Section V-A: ``taskEner`` / ``TaskReport`` tagged with AttemptTaskID).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..energy.model import UtilizationSample
from ..simulation import Event, Simulator
from ..workloads import JobSpec, WorkloadProfile

__all__ = [
    "TaskKind",
    "TaskState",
    "Task",
    "TaskAttempt",
    "TaskReport",
    "Job",
    "PendingWork",
]

_new_tuple = tuple.__new__


class TaskKind(enum.Enum):
    """Map or reduce."""

    MAP = "map"
    REDUCE = "reduce"

    #: Members are singletons compared by identity, so the C-level identity
    #: hash is consistent with equality.  ``Enum.__hash__`` is a Python
    #: method (``hash(self._name_)``) and every ``(job_id, kind)`` colony
    #: key lookup paid for it; its value was already per-process (string
    #: hashing is randomized), so nothing can depend on it.
    __hash__ = object.__hash__


class TaskState(enum.Enum):
    """Lifecycle of a task (not an attempt)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"

    __hash__ = object.__hash__  # see TaskKind


@dataclass(eq=False)
class Task:
    """One logical map or reduce task of a job.

    Identity equality (``eq=False``): every task is a unique live object,
    and the pending-queue ``list.remove`` calls in :class:`Job` must
    short-circuit on identity rather than field-compare O(queue) tasks —
    at datacenter scale the generated ``__eq__`` dominated the whole
    simulation.
    """

    job: "Job"
    index: int
    kind: TaskKind
    input_mb: float
    #: Machines holding a replica of this map's input block (empty for reduces).
    preferred_hosts: Tuple[int, ...] = ()
    state: TaskState = TaskState.PENDING
    attempts: List["TaskAttempt"] = field(default_factory=list)
    #: Incremented each time the task re-enters a pending queue, so stale
    #: queue entries from before a requeue can be recognized and skipped.
    _pending_seq: int = field(default=0, repr=False)
    _task_id: Optional[str] = field(default=None, repr=False)

    @property
    def task_id(self) -> str:
        """Stable id, e.g. ``j3-m-0017`` (computed once, then cached)."""
        tid = self._task_id
        if tid is None:
            letter = "m" if self.kind is TaskKind.MAP else "r"
            self._task_id = tid = f"j{self.job.job_id}-{letter}-{self.index:04d}"
        return tid

    @property
    def is_map(self) -> bool:
        return self.kind is TaskKind.MAP

    def new_attempt(self, machine_id: int, start_time: float) -> "TaskAttempt":
        """Register a new execution attempt on ``machine_id``."""
        attempt = TaskAttempt(
            task=self,
            attempt_number=len(self.attempts),
            machine_id=machine_id,
            start_time=start_time,
        )
        self.attempts.append(attempt)
        return attempt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.task_id} {self.state.value}>"


@dataclass
class TaskAttempt:
    """One execution of a task on one machine."""

    task: Task
    attempt_number: int
    machine_id: int
    start_time: float
    finish_time: Optional[float] = None
    #: Wall-clock seconds per phase, e.g. {"io": 4.1, "cpu": 17.5} for maps
    #: or {"shuffle": 30.2, "sort": 3.0, "reduce": 12.8} for reduces.
    phases: Dict[str, float] = field(default_factory=dict)
    #: True mean machine-fraction CPU utilization of the attempt's process.
    avg_utilization: float = 0.0
    #: Noisy per-heartbeat samples, as the TaskTracker would report them.
    samples: List[UtilizationSample] = field(default_factory=list)
    #: Whether the map input was read node-locally.
    local: bool = True
    succeeded: bool = False
    killed: bool = False
    #: Core-seconds of CPU demand this attempt actually exerted (partial
    #: phases included) — the basis of wasted-energy accounting for
    #: attempts that die before completing.
    core_seconds: float = 0.0
    _attempt_id: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def attempt_id(self) -> str:
        """Hadoop-style attempt id, e.g. ``attempt_j3-m-0017_0`` (computed
        once, then cached)."""
        aid = self._attempt_id
        if aid is None:
            self._attempt_id = aid = f"attempt_{self.task.task_id}_{self.attempt_number}"
        return aid

    @property
    def duration(self) -> float:
        """Wall-clock runtime (finish - start); requires a finish time."""
        if self.finish_time is None:
            raise ValueError(f"{self.attempt_id} has not finished")
        return self.finish_time - self.start_time

    def to_report(self) -> "TaskReport":
        """Flatten into the record shipped to the JobTracker."""
        task = self.task
        job = task.job
        spec = job.spec
        finish = self.finish_time
        # Built without TaskReport's Python-level __new__ (one report per
        # finished attempt); the values and their order are the fields'.
        return _new_tuple(TaskReport, (
            job.job_id,
            spec.name,
            spec.pool,
            job.resource_signature,
            task.task_id,
            self.attempt_id,
            task.kind,
            self.machine_id,
            self.start_time,
            finish if finish is not None else self.start_time,
            self.avg_utilization,
            tuple(self.samples),
            task.input_mb,
            self.local,
            dict(self.phases),
            spec.profile.name,
        ))


class TaskReport(NamedTuple):
    """Completion record of one task attempt (Section V-A's ``TaskReport``).

    This is the only task-level information E-Ant's task analyzer sees:
    identity, placement, timing, and the noisy CPU-utilization samples from
    which Eq. 2 estimates energy.

    A NamedTuple, like the wire types of :mod:`repro.core.service`: one is
    built per finished attempt, and a frozen dataclass paid one
    ``object.__setattr__`` per field.  Fields are read by name and cannot
    be reassigned; ``_replace`` makes a changed copy (the ``dataclasses``
    helpers ``replace``/``asdict``/``fields`` do not apply).
    """

    job_id: int
    job_name: str
    pool: str
    resource_signature: str
    task_id: str
    attempt_id: str
    kind: TaskKind
    machine_id: int
    start_time: float
    finish_time: float
    avg_utilization: float
    samples: Tuple[UtilizationSample, ...]
    input_mb: float
    local: bool
    phases: Dict[str, float]
    #: PUMA application name (e.g. ``"terasort"``), carried explicitly so
    #: consumers need not parse it back out of ``job_name``.  Defaults empty
    #: for hand-built reports; real reports always set it.
    application: str = ""

    @property
    def duration(self) -> float:
        """Wall-clock runtime of the attempt."""
        return self.finish_time - self.start_time


class PendingWork:
    """The admitted jobs with assignable work, kept current by the jobs.

    ``maps`` lists every job with a pending map and ``reduces`` every job
    with a pending reduce past the slowstart gate, both in admission order
    (the order of ``JobTracker.active_jobs``), so they equal the scans
    ``[j for j in active_jobs if j.pending_map_count > 0]`` and
    ``[j for j in active_jobs if j.reduces_schedulable(slowstart)]``.  A
    job updates them itself where one of its counters crosses zero or the
    gate: a take, a requeue, a map completion.  A heartbeat then reads
    them instead of scanning every active job.
    """

    __slots__ = ("maps", "reduces", "slowstart", "_admitted")

    def __init__(self, slowstart: float) -> None:
        self.maps: List["Job"] = []
        self.reduces: List["Job"] = []
        self.slowstart = slowstart
        self._admitted = 0

    def admit(self, job: "Job") -> None:
        """Track ``job`` from now on (it joins after every earlier job)."""
        job._work = self
        job._admission = self._admitted
        self._admitted += 1
        job._reduce_gate = self.slowstart * len(job.maps)
        if job._num_pending_maps:
            self.maps.append(job)
        if job.reduces_schedulable(self.slowstart):
            self.reduces.append(job)

    def retire(self, job: "Job") -> None:
        """Stop tracking ``job`` (it finished)."""
        job._work = None
        if job in self.maps:
            self.maps.remove(job)
        if job in self.reduces:
            self.reduces.remove(job)

    @staticmethod
    def enter(members: List["Job"], job: "Job") -> None:
        """Insert ``job`` into ``members`` at its admission rank."""
        rank = job._admission
        for position, other in enumerate(members):
            if other._admission > rank:
                members.insert(position, job)
                return
        members.append(job)


class Job:
    """A live job: task inventory, progress counters, completion events.

    Created by the JobTracker at submission time; exposes the pending-task
    queues every scheduler draws from and the events the reduce barrier and
    drivers wait on.
    """

    def __init__(
        self,
        sim: Simulator,
        job_id: int,
        spec: JobSpec,
        block_mb: float,
        map_input_sizes: Optional[Sequence[float]] = None,
        replica_hosts: Optional[Sequence[Tuple[int, ...]]] = None,
    ) -> None:
        self.sim = sim
        self.job_id = job_id
        self.spec = spec
        self.submit_time = spec.submit_time
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None

        num_maps = spec.num_maps(block_mb)
        if map_input_sizes is None:
            map_input_sizes = [block_mb] * num_maps
        if len(map_input_sizes) != num_maps:
            raise ValueError("one input size per map task required")
        if replica_hosts is None:
            replica_hosts = [()] * num_maps
        if len(replica_hosts) != num_maps:
            raise ValueError("one replica tuple per map task required")

        self.maps: List[Task] = [
            Task(
                job=self,
                index=i,
                kind=TaskKind.MAP,
                input_mb=float(map_input_sizes[i]),
                preferred_hosts=tuple(replica_hosts[i]),
            )
            for i in range(num_maps)
        ]
        shuffle_per_reduce = spec.shuffle_mb_per_reduce()
        self.reduces: List[Task] = [
            Task(job=self, index=i, kind=TaskKind.REDUCE, input_mb=shuffle_per_reduce)
            for i in range(spec.num_reduces)
        ]

        # Pending queues (schedulers pop from these via take_*).  Entries
        # are ``(seq, task)``; an entry is live only while ``seq`` matches
        # the task's current ``_pending_seq`` and the task is still
        # PENDING.  Dispatch never removes from the middle (an O(queue)
        # scan that dominated datacenter-scale runs) — stale entries are
        # skipped lazily at the head, and explicit counters keep the
        # pending counts exact.
        self._pending_maps: Deque[Tuple[int, Task]] = deque(
            (0, task) for task in self.maps
        )
        self._pending_reduces: Deque[Tuple[int, Task]] = deque(
            (0, task) for task in self.reduces
        )
        self._num_pending_maps = len(self.maps)
        self._num_pending_reduces = len(self.reduces)
        self._maps_by_host: Dict[int, List[Task]] = {}
        for task in self.maps:
            for host in task.preferred_hosts:
                self._maps_by_host.setdefault(host, []).append(task)

        self.running_maps = 0
        self.running_reduces = 0
        self.completed_maps = 0
        self.completed_reduces = 0
        #: E-Ant's job-level exchange key, computed once per job.
        self.resource_signature = spec.profile.resource_signature()
        #: The :class:`PendingWork` index this job keeps current, its rank
        #: there, and its slowstart threshold (set by ``PendingWork.admit``).
        self._work: Optional[PendingWork] = None
        self._admission = 0
        self._reduce_gate = 0.0

        self.maps_done_event: Event = sim.event()
        self.done_event: Event = sim.event()
        if not self.maps:
            raise ValueError("job must have at least one map task")
        if not self.reduces:
            # Map-only job: the maps-done barrier is the job barrier.
            pass

    # -------------------------------------------------------------- identity
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def profile(self) -> WorkloadProfile:
        return self.spec.profile

    @property
    def num_maps(self) -> int:
        return len(self.maps)

    @property
    def num_reduces(self) -> int:
        return len(self.reduces)

    # -------------------------------------------------------------- progress
    @property
    def is_done(self) -> bool:
        return self.done_event.triggered

    @property
    def maps_done(self) -> bool:
        return self.completed_maps >= len(self.maps)

    @property
    def occupied_slots(self) -> int:
        """``S_occ`` of Eq. 7 — slots this job currently holds."""
        return self.running_maps + self.running_reduces

    @property
    def pending_map_count(self) -> int:
        return self._num_pending_maps

    @property
    def pending_reduce_count(self) -> int:
        return self._num_pending_reduces

    def reduces_schedulable(self, slowstart: float) -> bool:
        """Whether reduce tasks may be launched yet (slowstart gate)."""
        if not self._num_pending_reduces:
            return False
        needed = slowstart * len(self.maps)
        return self.completed_maps >= needed

    @property
    def completion_time(self) -> float:
        """Submission-to-finish latency (requires the job to be done)."""
        if self.finish_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time

    # --------------------------------------------------------- task dispatch
    def local_pending_map(self, machine_id: int) -> Optional[Task]:
        """A pending map task whose input block lives on ``machine_id``."""
        if self.has_local_map(machine_id):
            return self._maps_by_host[machine_id][-1]
        return None

    def has_local_map(self, machine_id: int) -> bool:
        """Whether a pending map's input block lives on ``machine_id``
        (``local_pending_map(machine_id) is not None``, without building
        the answer: E-Ant's locality short-circuit asks it of every
        candidate job on every map slot offer)."""
        queue = self._maps_by_host.get(machine_id)
        # Lazily skip tasks already taken through another replica's queue.
        while queue:
            if queue[-1].state is TaskState.PENDING:
                return True
            queue.pop()
        return False

    def take_map(self, machine_id: int, prefer_local: bool = True) -> Optional[Task]:
        """Pop a pending map for assignment to ``machine_id``.

        With ``prefer_local``, node-local tasks are taken first; otherwise
        (or when none are local) the oldest pending map is taken.
        """
        task: Optional[Task] = None
        if prefer_local:
            task = self.local_pending_map(machine_id)
        if task is None:
            queue = self._pending_maps
            while queue:
                seq, candidate = queue[0]
                if (
                    candidate.state is TaskState.PENDING
                    and candidate._pending_seq == seq
                ):
                    task = candidate
                    break
                queue.popleft()
        if task is None:
            return None
        self._mark_running(task)
        return task

    def take_reduce(self) -> Optional[Task]:
        """Pop a pending reduce for assignment."""
        queue = self._pending_reduces
        while queue:
            seq, candidate = queue[0]
            if (
                candidate.state is TaskState.PENDING
                and candidate._pending_seq == seq
            ):
                self._mark_running(candidate)
                return candidate
            queue.popleft()
        return None

    def _mark_running(self, task: Task) -> None:
        if task.state is not TaskState.PENDING:
            raise ValueError(f"{task.task_id} is not pending")
        task.state = TaskState.RUNNING
        work = self._work
        if task.is_map:
            self.running_maps += 1
            self._num_pending_maps -= 1
            if work is not None and not self._num_pending_maps:
                work.maps.remove(self)
        else:
            self.running_reduces += 1
            self._num_pending_reduces -= 1
            if (
                work is not None
                and not self._num_pending_reduces
                and self.completed_maps >= self._reduce_gate
            ):
                work.reduces.remove(self)
        if self.start_time is None:
            self.start_time = self.sim.now

    def requeue(self, task: Task) -> None:
        """Return a running task to the pending queue (killed attempt)."""
        if task.state is not TaskState.RUNNING:
            raise ValueError(f"{task.task_id} is not running")
        task.state = TaskState.PENDING
        task._pending_seq += 1
        work = self._work
        if task.is_map:
            self.running_maps -= 1
            self._num_pending_maps += 1
            self._pending_maps.append((task._pending_seq, task))
            if work is not None and self._num_pending_maps == 1:
                work.enter(work.maps, self)
        else:
            self.running_reduces -= 1
            self._num_pending_reduces += 1
            self._pending_reduces.append((task._pending_seq, task))
            if (
                work is not None
                and self._num_pending_reduces == 1
                and self.completed_maps >= self._reduce_gate
            ):
                work.enter(work.reduces, self)

    def complete_task(self, task: Task) -> None:
        """Mark a running task completed; fires barriers when crossed."""
        if task.state is TaskState.COMPLETED:
            # A concurrent (speculative) attempt already finished the task.
            return
        if task.state is not TaskState.RUNNING:
            raise ValueError(f"{task.task_id} completed while {task.state.value}")
        task.state = TaskState.COMPLETED
        if task.is_map:
            self.running_maps -= 1
            self.completed_maps += 1
            work = self._work
            if (
                work is not None
                and self._num_pending_reduces
                and self.completed_maps - 1 < self._reduce_gate <= self.completed_maps
            ):
                work.enter(work.reduces, self)  # the slowstart crossing
            if self.maps_done and not self.maps_done_event.triggered:
                self.maps_done_event.succeed(self.sim.now)
        else:
            self.running_reduces -= 1
            self.completed_reduces += 1
        if (
            self.completed_maps >= len(self.maps)
            and self.completed_reduces >= len(self.reduces)
            and not self.done_event.triggered
        ):
            self.finish_time = self.sim.now
            self.done_event.succeed(self.sim.now)

    # ----------------------------------------------------------- breakdowns
    def phase_breakdown(self) -> Dict[str, float]:
        """Aggregate wall-clock seconds spent per phase across attempts.

        This is the quantity behind Fig. 1(d): the share of total task time
        a job spends in map vs shuffle vs reduce work.
        """
        totals: Dict[str, float] = {"map": 0.0, "shuffle": 0.0, "reduce": 0.0}
        for task in self.maps + self.reduces:
            for attempt in task.attempts:
                if not attempt.succeeded:
                    continue
                for phase, seconds in attempt.phases.items():
                    if phase in ("io", "cpu"):
                        totals["map"] += seconds
                    elif phase in ("shuffle", "sort"):
                        # Hadoop reports copy + sort/merge together as the
                        # shuffle stage of a reduce attempt.
                        totals["shuffle"] += seconds
                    else:
                        totals["reduce"] += seconds
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.job_id} {self.name!r} maps {self.completed_maps}/{len(self.maps)} "
            f"reduces {self.completed_reduces}/{len(self.reduces)}>"
        )
