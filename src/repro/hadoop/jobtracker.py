"""The JobTracker: job admission, heartbeat dispatch, completion tracking.

The JobTracker owns the job inventory and delegates every assignment
decision to a :class:`~repro.core.service.LocalSchedulerCore` wrapping the
pluggable :class:`~repro.schedulers.base.Scheduler` — the same control
surface the paper modifies in Hadoop 1.2.1 (Section V-A).  The DES is one
*host* of that core (the :mod:`repro.serve` daemon is the other): this
module keeps the host concerns — the sim clock, heartbeat bookkeeping,
lazy tracker expiry, parking idle trackers, trace emission — and the
core keeps the decision concerns.  It also drives the periodic
control-interval tick E-Ant's adaptive task assigner re-optimizes on (a
timeout chain on the sim clock, under either host), and fans
completed-task reports out to the scheduler and any registered listeners
(metrics collectors, task analyzers).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from ..cluster import Cluster
from ..noise import NoiseModel
from ..observability.metrics import MetricsRegistry
from ..observability.tracer import NULL_TRACER, EventType
from ..simulation import Event, Simulator
from ..workloads import JobSpec
from .config import HadoopConfig
from .hdfs import BlockPlacer
from .job import Job, PendingWork, Task, TaskAttempt, TaskReport
from .tasktracker import TaskTracker

# Imported after the hadoop leaf modules above: repro.core's package init
# pulls in repro.core.scheduler, which imports those same leaf modules, so
# this import must come last to stay cycle-safe under either entry order
# (see the import-discipline note in repro/core/service.py).
from ..core.service import LocalSchedulerCore, TrackerInfo

if TYPE_CHECKING:  # pragma: no cover
    from ..schedulers.base import Scheduler

__all__ = ["JobTracker"]

ReportListener = Callable[[TaskReport], None]


class JobTracker:
    """Master daemon of the simulated Hadoop cluster.

    Parameters
    ----------
    sim, cluster, config:
        Simulation clock, the cluster, framework configuration.
    scheduler:
        The task-assignment policy under test.
    placer:
        HDFS block placer used for new jobs' inputs.
    skew_noise:
        Noise model supplying per-task input-size skew at job creation.
    rng:
        RNG stream for skew draws.
    tracer:
        Trace sink (:mod:`repro.observability`); defaults to the no-op
        tracer, under which no event is ever constructed.
    registry:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving assignment counters and heartbeat-gap histograms.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        config: HadoopConfig,
        scheduler: "Scheduler",
        placer: BlockPlacer,
        skew_noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
        tracer=NULL_TRACER,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        #: Trace sink shared with the trackers and the scheduler; the no-op
        #: default keeps every emission site behind one ``enabled`` check.
        self.tracer = tracer
        #: Optional metrics registry (counters/histograms); None disables.
        self.registry = registry
        # Hot-path handles: resolved once so heartbeats and completions avoid
        # rebuilding registry keys (sorted label tuples) per event.
        self._heartbeat_gap_hist = (
            None if registry is None else registry.histogram("heartbeat_gap_seconds")
        )
        #: The transport-agnostic decision core this host drives.  Every
        #: assignment decision, control-interval tick, and completion
        #: feedback goes through it — the same object the serve daemon
        #: would drive, so simulation and service cannot drift.
        self.core = LocalSchedulerCore(
            scheduler,
            control_interval=config.control_interval,
            registry=registry,
            start_time=sim.now,
        )
        self.cluster = cluster
        self.config = config
        self.scheduler = scheduler
        self.placer = placer
        self.skew_noise = skew_noise
        self.rng = rng if rng is not None else np.random.default_rng(0)

        self.jobs: Dict[int, Job] = {}
        self.active_jobs: List[Job] = []
        #: The active jobs with a pending map or a schedulable reduce, kept
        #: current by the jobs themselves (read by ``Scheduler``'s
        #: ``jobs_with_pending_maps``/``jobs_with_schedulable_reduces``).
        self.pending_work = PendingWork(config.reduce_slowstart)
        self.completed_jobs: List[Job] = []
        self.trackers: Dict[int, TaskTracker] = {}
        self.last_heartbeat: Dict[int, float] = {}
        self.expired_trackers: List[int] = []
        self.recovered_trackers: List[int] = []
        self.reports: List[TaskReport] = []
        self._listeners: List[ReportListener] = []
        self._next_job_id = 0
        self._expected_jobs: Optional[int] = None
        self._shutdown = False
        self.all_done_event: Event = sim.event()
        self._interval_process = None
        #: lower bound on the earliest time any tracker could go stale; lets
        #: the per-heartbeat expiry sweep short-circuit (see the sweep)
        self._no_expiry_before = 0.0
        #: Parked trackers by machine id (see :meth:`_park_idle`).
        self._parked: Dict[int, TaskTracker] = {}
        #: Min-heap of ``[next_beat, machine_id, last_beat]`` phase chains
        #: over the parked trackers that have a free slot, and each
        #: tracker's entry in it.
        self._wake_queue: List[list] = []
        self._queued: Dict[int, list] = {}
        #: The tracker last woken for pending work, until it heartbeats.
        self._waking: Optional[TaskTracker] = None
        self._waking_at = 0.0
        #: Registered trackers that are crashed or dropping heartbeats;
        #: while any exists no tracker parks.
        self._unsteady: Set[int] = set()
        # Parking must leave every observable unchanged: only a policy that
        # overrides may_assign() can park, a trace keeps one event per
        # heartbeat, the registry a heartbeat-gap histogram, and with
        # heartbeat_interval >= tracker_expiry live trackers expire each
        # other between their own heartbeats.  (Imported here: the
        # schedulers package imports repro.hadoop.)
        from ..schedulers.base import Scheduler

        self._parking = (
            type(scheduler).may_assign is not Scheduler.may_assign
            and not tracer.enabled
            and registry is None
            and not 0 < config.tracker_expiry <= config.heartbeat_interval
        )

        scheduler.bind(self)

    # ------------------------------------------------------------- lifecycle
    def register_tracker(self, tracker: TaskTracker) -> None:
        """Called by each TaskTracker when it starts."""
        machine = tracker.machine
        self.trackers[machine.machine_id] = tracker
        self.core.register_tracker(
            TrackerInfo(
                machine_id=machine.machine_id,
                hostname=machine.hostname,
                model=machine.spec.model,
                map_slots=machine.spec.map_slots,
                reduce_slots=machine.spec.reduce_slots,
            )
        )

    def attach_telemetry(self, sink) -> None:
        """Attach a :class:`~repro.observability.TelemetrySink` to the
        heartbeat path.

        Every heartbeat's assignment batch size is buffered for the
        sink's log-bucketed histograms, and one heartbeat in every
        ``SAMPLE_STRIDE`` additionally has its ``select_tasks``
        wall-clock latency timed (the clock reads are the dominant hook
        cost at fleet scale).  Pure observation — no RNG is consumed and
        no simulation event is scheduled.
        """
        self.core.attach_telemetry(sink)

    def expect_jobs(self, count: int) -> None:
        """Declare the total number of jobs this run will submit.

        The JobTracker shuts down (stopping heartbeats, draining the event
        heap) once that many jobs have completed.
        """
        if count < 1:
            raise ValueError("expected job count must be >= 1")
        self._expected_jobs = count

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def start_control_loop(self) -> None:
        """Begin the periodic control-interval tick (idempotent)."""
        if self._interval_process is None:
            self._interval_process = self.sim.process(
                self._control_loop(), name="jt-control-loop"
            )

    def _control_loop(self) -> Generator:
        while not self._shutdown:
            yield self.sim.timeout(self.config.control_interval)
            if self._shutdown:
                return
            self.control_tick()

    def control_tick(self) -> None:
        """Fire control-interval ticks due at the current sim time."""
        self.core.advance_time(self.sim.now, on_interval=self._trace_interval)

    def _trace_interval(self, index: int) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.CONTROL_INTERVAL,
                self.sim.now,
                index=index,
                active_jobs=len(self.active_jobs),
                pending_maps=sum(j.pending_map_count for j in self.active_jobs),
                pending_reduces=sum(j.pending_reduce_count for j in self.active_jobs),
            )

    # ------------------------------------------------------------- admission
    def submit(self, spec: JobSpec, replica_hosts=None) -> Job:
        """Admit a job: place its blocks, apply data skew, notify scheduler.

        ``replica_hosts`` overrides HDFS placement (one tuple of machine
        ids per map task) — used by the data-locality experiments.
        """
        job_id = self._next_job_id
        self._next_job_id += 1
        num_maps = spec.num_maps(self.config.block_mb)
        if replica_hosts is None:
            replica_hosts = self.placer.place_job_blocks(num_maps)
        sizes = [self.config.block_mb] * num_maps
        if self.skew_noise is not None and self.skew_noise.skew_sigma > 0:
            sizes = [s * self.skew_noise.skew_factor(self.rng) for s in sizes]
        job = Job(
            sim=self.sim,
            job_id=job_id,
            spec=spec,
            block_mb=self.config.block_mb,
            map_input_sizes=sizes,
            replica_hosts=replica_hosts,
        )
        return self.submit_prepared(job)

    def _trace_job_submitted(self, job: Job) -> None:
        self.tracer.emit(
            EventType.JOB_SUBMITTED,
            self.sim.now,
            job_id=job.job_id,
            name=job.name,
            application=job.profile.name,
            num_maps=job.num_maps,
            num_reduces=job.num_reduces,
        )

    def submit_prepared(self, job: Job) -> Job:
        """Admit a pre-built job (experiments that control placement)."""
        if job.job_id in self.jobs:
            raise ValueError(f"job id {job.job_id} already admitted")
        self._next_job_id = max(self._next_job_id, job.job_id + 1)
        self.jobs[job.job_id] = job
        self.active_jobs.append(job)
        self.pending_work.admit(job)
        job.done_event.add_callback(lambda _e, j=job: self._job_done(j))
        if self.tracer.enabled:
            self._trace_job_submitted(job)
        self.core.job_added(job)
        self._work_appeared()
        return job

    def _job_done(self, job: Job) -> None:
        self.active_jobs.remove(job)
        self.pending_work.retire(job)
        self.completed_jobs.append(job)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.JOB_COMPLETED,
                self.sim.now,
                job_id=job.job_id,
                name=job.name,
                completion_time=job.completion_time,
            )
        self.core.job_removed(job)
        if self._expected_jobs is not None and len(self.completed_jobs) >= self._expected_jobs:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop heartbeats and periodic loops; fires ``all_done_event``."""
        if self._shutdown:
            return
        self._shutdown = True
        # Parked trackers take the one last heartbeat timeout they would
        # have taken anyway, and stop on it.
        self._wake_all()
        if not self.all_done_event.triggered:
            self.all_done_event.succeed(self.sim.now)

    # -------------------------------------------------------------- heartbeat
    def heartbeat(self, tracker: TaskTracker) -> List[Task]:
        """Handle one TaskTracker heartbeat; returns tasks to launch.

        The scheduler sees the tracker's free slots and may return at most
        that many tasks of each kind (the slot constraint of Eq. 1).
        Stale trackers are expired lazily on every live heartbeat, as in
        Hadoop.
        """
        if tracker is self._waking:
            self._waking = None
        if self._shutdown:
            return []
        machine_id = tracker.machine.machine_id
        previous = self.last_heartbeat.get(machine_id)
        self.last_heartbeat[machine_id] = self.sim.now
        if self._heartbeat_gap_hist is not None and previous is not None:
            self._heartbeat_gap_hist.observe(self.sim.now - previous)
        self._expire_dead_trackers()
        if machine_id not in self.trackers:
            return []  # this tracker was itself expired
        status = tracker.status()
        core = self.core
        assignments = core.select(status, self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.HEARTBEAT,
                self.sim.now,
                machine_id=machine_id,
                free_map_slots=status.free_map_slots,
                free_reduce_slots=status.free_reduce_slots,
                running_maps=status.running_maps,
                running_reduces=status.running_reduces,
                assigned_maps=core.last_maps,
                assigned_reduces=core.last_reduces,
                gap=None if previous is None else self.sim.now - previous,
            )
        if self._parking:
            self._park_idle(tracker, status, assignments)
        return assignments

    # ---------------------------------------------------------------- parking
    def _park_idle(self, tracker: TaskTracker, status, assignments: List[Task]) -> None:
        """Park ``tracker`` if its heartbeats cannot assign; keep work moving.

        A tracker whose heartbeat assigned nothing parks when no job has
        assignable work (``may_assign()`` is False) or when it has no free
        slot: the heartbeats it skips would assign nothing and change
        nothing else.  While work is pending, parked trackers with a free
        slot are woken one at a time in the order of their next heartbeat
        phase (:meth:`_wake_next`), since a later one can only take work
        the earlier ones left pending.  New work (a submit, a requeue, a
        reduce slowstart crossing) or a slot freeing on a parked tracker
        restarts that cascade; a tracker crashing or dropping heartbeats,
        an expiry, and shutdown wake every parked tracker.  So every
        heartbeat a never-parking run makes while work is pending still
        happens, at the same instant, and results are bit-identical
        (``reference_mode()`` never parks; the differential suite compares).
        """
        if self._unsteady or (assignments and not self._wake_queue):
            return
        work = self.scheduler.may_assign()
        if not assignments:
            free = status.free_map_slots or status.free_reduce_slots
            if not work or not free:
                machine_id = status.machine_id
                tracker.park()
                self._parked[machine_id] = tracker
                if free:
                    self._enqueue(machine_id, self.sim.now)
        if work:
            self._wake_next()

    def _enqueue(self, machine_id: int, last: float) -> None:
        entry = [last + self.config.heartbeat_interval, machine_id, last]
        heappush(self._wake_queue, entry)
        self._queued[machine_id] = entry

    def _advance(self, last: float, beat: float) -> Tuple[float, float]:
        """Step a phase chain to its first heartbeat at or after now.

        Repeats the ``+ heartbeat_interval`` float addition the heartbeat
        timeouts make, so ``beat`` is exactly a time the tracker would have
        heartbeated at, and ``last`` the heartbeat before it.
        """
        interval = self.config.heartbeat_interval
        now = self.sim.now
        while beat < now:
            last = beat
            beat += interval
        return last, beat

    def _wake(self, machine_id: int, tracker: TaskTracker, last: float, beat: float) -> None:
        self.last_heartbeat[machine_id] = last
        # The expiry sweep skipped this tracker while it was parked.
        expiry = self.config.tracker_expiry
        if expiry > 0 and last + expiry < self._no_expiry_before:
            self._no_expiry_before = last + expiry
        tracker.wake(beat)

    def _wake_next(self) -> None:
        """Work is pending: wake the parked tracker with a free slot that
        heartbeats first, unless one woken for it heartbeats no later."""
        queue = self._wake_queue
        if not queue:
            return
        now = self.sim.now
        entry = queue[0]
        while entry[0] < now:
            beat, machine_id, last = entry
            last, beat = self._advance(last, beat)
            entry = [beat, machine_id, last]
            heapreplace(queue, entry)
            self._queued[machine_id] = entry
            entry = queue[0]
        beat, machine_id, last = entry
        if self._waking is not None and now <= self._waking_at <= beat:
            return
        heappop(queue)
        del self._queued[machine_id]
        tracker = self._parked.pop(machine_id)
        self._wake(machine_id, tracker, last, beat)
        self._waking = tracker
        self._waking_at = beat

    def _work_appeared(self) -> None:
        if self._wake_queue and self.scheduler.may_assign():
            self._wake_next()

    def slot_freed(self, tracker: TaskTracker) -> None:
        """A slot freed on a parked tracker: it may now take pending work."""
        machine_id = tracker.machine.machine_id
        if machine_id not in self._queued:
            self._enqueue(machine_id, self.last_heartbeat[machine_id])
            self._work_appeared()

    def _wake_all(self) -> None:
        """Wake every parked tracker (a fault, an expiry, or shutdown)."""
        self._waking = None
        interval = self.config.heartbeat_interval
        parked, self._parked = self._parked, {}
        self._wake_queue.clear()
        self._queued.clear()
        for machine_id, tracker in parked.items():
            last = self.last_heartbeat[machine_id]
            self._wake(machine_id, tracker, *self._advance(last, last + interval))

    def tracker_health_changed(self, tracker: TaskTracker) -> None:
        """A tracker crashed, recovered, or started/stopped dropping
        heartbeats.  Expiry then depends on every heartbeat's sweep, so
        no tracker sleeps while a registered one is unsteady."""
        machine_id = tracker.machine.machine_id
        if self.trackers.get(machine_id) is tracker and (
            tracker.is_crashed or tracker.heartbeat_drop_probability > 0.0
        ):
            self._unsteady.add(machine_id)
            self._wake_all()
        else:
            self._unsteady.discard(machine_id)

    # ----------------------------------------------------------- failures
    def _expire_dead_trackers(self) -> None:
        """Declare silent trackers dead and requeue their running tasks.

        Runs on every heartbeat, so the O(trackers) sweep is gated behind a
        cached lower bound: no tracker can be stale before
        ``min(last_heartbeat) + expiry`` as of the previous sweep.
        Heartbeats and recoveries only *raise* timestamps (and expiry only
        removes trackers), so the bound stays a valid lower bound without
        invalidation; a sweep at or past it recomputes the next one.
        """
        expiry = self.config.tracker_expiry
        if expiry <= 0:
            return
        now = self.sim.now
        if now < self._no_expiry_before:
            return
        oldest = None
        parked = self._parked
        for machine_id, tracker in list(self.trackers.items()):
            last = self.last_heartbeat.get(machine_id)
            if last is None or machine_id in parked:
                continue
            if now - last >= expiry:
                self.expire_tracker(machine_id)
            elif oldest is None or last < oldest:
                oldest = last
        # With no timestamped trackers left, the earliest a future first
        # heartbeat could go stale is ``expiry`` from now.
        self._no_expiry_before = (oldest if oldest is not None else now) + expiry

    def expire_tracker(self, machine_id: int) -> None:
        """Remove a tracker from service and recover its in-flight tasks.

        Running tasks whose latest attempt sat on the dead machine go back
        to their jobs' pending queues, so later heartbeats re-execute them
        elsewhere (Hadoop's task re-execution on TaskTracker failure).
        """
        tracker = self.trackers.pop(machine_id, None)
        if tracker is None:
            return
        self._unsteady.discard(machine_id)
        if machine_id in self._parked or tracker is self._waking:
            # It heartbeats on into ``[]``, so it must neither stay parked
            # nor be the tracker a pending-work cascade waits on.
            self._wake_all()
        self.expired_trackers.append(machine_id)
        if self.tracer.enabled:
            self.tracer.emit(EventType.TRACKER_EXPIRED, self.sim.now, machine_id=machine_id)
        self._requeue_lost_tasks(machine_id)

    def _requeue_lost_tasks(self, machine_id: int) -> int:
        """Requeue running tasks whose latest attempt died on ``machine_id``.

        Returns how many tasks went back to pending queues.
        """
        requeued = 0
        for job in list(self.active_jobs):
            for task in job.maps + job.reduces:
                if task.state.value != "running" or not task.attempts:
                    continue
                latest = task.attempts[-1]
                if latest.machine_id == machine_id and not latest.succeeded:
                    latest.killed = True
                    if latest.finish_time is None:
                        latest.finish_time = self.sim.now
                    job.requeue(task)
                    requeued += 1
        if requeued:
            self._work_appeared()
        return requeued

    def tracker_recovered(self, tracker: TaskTracker) -> None:
        """A crashed TaskTracker restarted and is rejoining service.

        Re-registers the tracker and refreshes its heartbeat timestamp so
        lazy expiry does not immediately re-expire it during the desync
        delay before its first heartbeat.  If the crash was shorter than
        ``tracker_expiry`` the JobTracker never noticed the silence, so
        the tasks that died with the daemon are requeued here — a
        restarted TaskTracker always comes back empty.
        """
        machine_id = tracker.machine.machine_id
        self.trackers[machine_id] = tracker
        self.last_heartbeat[machine_id] = self.sim.now
        self.tracker_health_changed(tracker)
        self._requeue_lost_tasks(machine_id)
        self.recovered_trackers.append(machine_id)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.TRACKER_RECOVERED, self.sim.now, machine_id=machine_id
            )

    # ------------------------------------------------------------ completions
    def add_report_listener(self, listener: ReportListener) -> None:
        """Register a callback invoked for every successful task report."""
        self._listeners.append(listener)

    def task_finished(self, tracker: Optional[TaskTracker], attempt: TaskAttempt) -> None:
        """A TaskTracker reports a successful attempt; ``tracker`` is unused."""
        task = attempt.task
        job = task.job
        already_done = task.state.value == "completed"
        # A map completion can open its job's reduce slowstart gate: new
        # work for parked trackers.
        slowstart = self.config.reduce_slowstart
        gated = (
            bool(self._wake_queue)
            and task.is_map
            and not job.reduces_schedulable(slowstart)
        )
        job.complete_task(task)
        if gated and job.reduces_schedulable(slowstart):
            self._work_appeared()
        if already_done:
            return  # speculative duplicate: winner already reported
        report = attempt.to_report()
        self.reports.append(report)
        self.core.task_report(report)
        for listener in self._listeners:
            listener(report)

    def task_killed(self, tracker: TaskTracker, attempt: TaskAttempt) -> None:
        """A TaskTracker reports a killed attempt; requeue if still needed."""
        task = attempt.task
        attempt.killed = True
        if task.state.value == "running":
            task.job.requeue(task)
            self._work_appeared()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<JobTracker active={len(self.active_jobs)} "
            f"done={len(self.completed_jobs)} trackers={len(self.trackers)}>"
        )
