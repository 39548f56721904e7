"""TaskTrackers: per-machine slot management and task execution.

Each machine runs one :class:`TaskTracker` that heartbeats the JobTracker
every ``heartbeat_interval`` seconds (Section V: 3 s), offering its free
map/reduce slots; an idle tracker may skip heartbeats that cannot assign
(see ``JobTracker._park_idle``).  Tasks handed back are executed as simulation
processes that move through explicit phases (IO / CPU for maps; shuffle /
sort / reduce for reduces), register CPU and IO load on the machine (which
drives the ground-truth energy integration), and on completion ship a
:class:`~repro.hadoop.job.TaskReport` with noisy per-heartbeat CPU samples
— exactly the feedback E-Ant's task analyzer consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, NamedTuple, Optional

import numpy as np

from ..cluster import Machine
from ..energy.model import samples_from_phases
from ..noise import NO_NOISE, NoiseModel
from ..observability.tracer import NULL_TRACER, EventType
from ..simulation import Event, Interrupt, Process, Simulator
from .config import HadoopConfig
from .job import Task, TaskAttempt, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from .jobtracker import JobTracker

__all__ = ["TrackerStatus", "TaskTracker"]


class TrackerStatus(NamedTuple):
    """Snapshot of a TaskTracker included in its heartbeat.

    A NamedTuple rather than a frozen dataclass: one is built on every
    heartbeat of every tracker, and at thousand-node fleets the
    ``object.__setattr__`` dance frozen dataclasses pay per field showed
    up in the heartbeat profile.
    """

    machine_id: int
    free_map_slots: int
    free_reduce_slots: int
    running_maps: int
    running_reduces: int


class TaskTracker:
    """The per-machine Hadoop worker daemon.

    Parameters
    ----------
    sim, machine, config:
        Simulation clock, the machine this tracker manages, and framework
        configuration.
    noise:
        System-noise model applied to this machine's task executions.
    rng:
        RNG stream for this tracker's noise draws.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        config: HadoopConfig,
        noise: NoiseModel = NO_NOISE,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine
        self.config = config
        self.noise = noise
        self.rng = rng if rng is not None else np.random.default_rng(machine.machine_id)
        self.jobtracker: Optional["JobTracker"] = None
        self.tracer = NULL_TRACER  # inherited from the JobTracker at start()
        self.running_maps = 0
        self.running_reduces = 0
        self._attempt_processes: Dict[str, Process] = {}
        #: The queued timeout of the next heartbeat; None while parked or
        #: stopped.  A heartbeat event that is no longer this one was
        #: orphaned by a crash and does nothing when it fires.
        self._next_beat: Optional[Event] = None
        #: Skipping heartbeats until the JobTracker wakes it (see :meth:`park`).
        self.parked = False
        self._crashed = False
        #: probability a heartbeat is silently dropped (fault injection);
        #: draws come from the injector's dedicated "faults" stream so the
        #: tracker's own noise draws stay untouched
        self.heartbeat_drop_probability = 0.0
        self._flaky_rng: Optional[np.random.Generator] = None
        #: Total tasks this tracker has completed, by kind (metrics).
        self.completed_counts: Dict[TaskKind, int] = {TaskKind.MAP: 0, TaskKind.REDUCE: 0}

    # -------------------------------------------------------------- lifecycle
    def start(self, jobtracker: "JobTracker") -> None:
        """Register with the JobTracker and begin heartbeating."""
        self.jobtracker = jobtracker
        self.tracer = jobtracker.tracer
        jobtracker.register_tracker(self)
        self._start_heartbeats()

    def _start_heartbeats(self) -> None:
        # Desynchronize trackers slightly, as real daemons are.
        delay = float(self.rng.uniform(0, self.config.heartbeat_interval))
        self._queue_beat(self.sim.timeout(delay))

    def _queue_beat(self, event: Event) -> None:
        self._next_beat = event
        event.add_callback(self._beat)

    def _beat(self, event: Event) -> None:
        """One heartbeat: offer the free slots, launch what comes back,
        queue the next heartbeat one ``heartbeat_interval`` later."""
        jobtracker = self.jobtracker
        assert jobtracker is not None
        if event is not self._next_beat:
            return
        if jobtracker.is_shutdown:
            self._next_beat = None
            return
        if (
            self.heartbeat_drop_probability > 0.0
            and self._flaky_rng is not None
            and float(self._flaky_rng.random()) < self.heartbeat_drop_probability
        ):
            # Flaky NIC/daemon: the heartbeat is lost in transit.  The
            # JobTracker sees nothing — long enough streaks trip expiry.
            assignments: List[Task] = []
        else:
            assignments = jobtracker.heartbeat(self)
        for task in assignments:
            self.launch(task)
        if self._next_beat is event:
            self._queue_beat(self.sim.timeout(self.config.heartbeat_interval))

    def park(self) -> None:
        """Skip heartbeats until :meth:`wake`.

        Called by the JobTracker from inside this tracker's heartbeat,
        which assigned nothing.
        """
        self._next_beat = None
        self.parked = True

    def wake(self, next_beat: float) -> None:
        """End the park: heartbeat next at absolute time ``next_beat``.

        The JobTracker rebuilt ``next_beat`` with the same float additions
        the heartbeat timeouts make, so it is exactly a time this tracker
        would have heartbeated at had it never parked.
        """
        self.parked = False
        self._queue_beat(self.sim.timeout_at(next_beat))

    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def set_flaky(
        self, drop_probability: float, rng: Optional[np.random.Generator]
    ) -> None:
        """Start (or stop, with 0.0) dropping heartbeats with the given
        probability, drawing from ``rng`` (the injector's faults stream)."""
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.heartbeat_drop_probability = drop_probability
        self._flaky_rng = rng
        if self.jobtracker is not None:
            self.jobtracker.tracker_health_changed(self)

    # ------------------------------------------------------------------ slots
    @property
    def free_map_slots(self) -> int:
        return self.machine.spec.map_slots - self.running_maps

    @property
    def free_reduce_slots(self) -> int:
        return self.machine.spec.reduce_slots - self.running_reduces

    def status(self) -> TrackerStatus:
        """Current heartbeat snapshot."""
        return TrackerStatus(
            machine_id=self.machine.machine_id,
            free_map_slots=self.free_map_slots,
            free_reduce_slots=self.free_reduce_slots,
            running_maps=self.running_maps,
            running_reduces=self.running_reduces,
        )

    # -------------------------------------------------------------- execution
    def launch(self, task: Task) -> TaskAttempt:
        """Start executing ``task`` in a slot (the scheduler already claimed
        the task from its job's pending queue)."""
        if task.is_map:
            if self.free_map_slots <= 0:
                raise RuntimeError(f"{self.machine.hostname}: no free map slot")
            self.running_maps += 1
        else:
            if self.free_reduce_slots <= 0:
                raise RuntimeError(f"{self.machine.hostname}: no free reduce slot")
            self.running_reduces += 1
        attempt = task.new_attempt(self.machine.machine_id, self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.TASK_LAUNCHED,
                self.sim.now,
                task_id=task.task_id,
                attempt_id=attempt.attempt_id,
                job_id=task.job.job_id,
                kind=task.kind.value,
                machine_id=self.machine.machine_id,
                attempt_number=attempt.attempt_number,
            )
        body = self._run_map(attempt) if task.is_map else self._run_reduce(attempt)
        process = self.sim.process(body, name=attempt.attempt_id)
        self._attempt_processes[attempt.attempt_id] = process
        return attempt

    def kill_attempt(self, attempt: TaskAttempt) -> None:
        """Interrupt a running attempt (speculative-execution loser)."""
        process = self._attempt_processes.get(attempt.attempt_id)
        if process is not None:
            process.interrupt("killed")

    def crash(self) -> None:
        """Fail the node: heartbeats stop, resident work dies silently.

        The JobTracker learns of the failure only through missed
        heartbeats (``HadoopConfig.tracker_expiry``), exactly as in
        Hadoop; the machine keeps drawing its idle power (a hung box is
        not an unplugged box).
        """
        if self._crashed:
            return
        self._crashed = True
        if self.jobtracker is not None:
            self.jobtracker.tracker_health_changed(self)
        self._next_beat = None
        for process in list(self._attempt_processes.values()):
            process.interrupt("crash")

    def recover(self) -> None:
        """Rejoin after a crash: re-register and resume heartbeats.

        The daemon comes back empty-handed — every attempt that was
        resident at crash time died with the process and its task must be
        re-executed elsewhere (the JobTracker requeues them on re-register
        if heartbeat expiry has not already done so).  Mirrors restarting
        the TaskTracker daemon on a rebooted node.
        """
        if not self._crashed:
            raise RuntimeError(f"{self.machine.hostname} is not crashed")
        assert self.jobtracker is not None
        self._crashed = False
        self.jobtracker.tracker_recovered(self)
        self._start_heartbeats()

    def _finish_attempt(self, attempt: TaskAttempt, succeeded: bool) -> None:
        """Release the slot and report the outcome."""
        task = attempt.task
        if task.is_map:
            self.running_maps -= 1
        else:
            self.running_reduces -= 1
        attempt.finish_time = self.sim.now
        attempt.succeeded = succeeded
        self._attempt_processes.pop(attempt.attempt_id, None)
        assert self.jobtracker is not None
        if self.parked:
            self.jobtracker.slot_freed(self)
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.TASK_COMPLETED if succeeded else EventType.TASK_KILLED,
                self.sim.now,
                task_id=task.task_id,
                attempt_id=attempt.attempt_id,
                job_id=task.job.job_id,
                kind=task.kind.value,
                machine_id=self.machine.machine_id,
                duration=attempt.duration,
                local=attempt.local,
                avg_utilization=attempt.avg_utilization,
                phases=dict(attempt.phases),
                crashed=self._crashed,
            )
        if self._crashed:
            # A crashed node reports nothing; the JobTracker discovers the
            # loss via heartbeat expiry and requeues the tasks itself.
            attempt.killed = True
            return
        if succeeded:
            self.completed_counts[task.kind] += 1
            self.jobtracker.task_finished(self, attempt)
        else:
            self.jobtracker.task_killed(self, attempt)

    # ---------------------------------------------------------- map execution
    def _run_map(self, attempt: TaskAttempt) -> Generator:
        task = attempt.task
        machine = self.machine
        spec = machine.spec
        profile = task.job.profile
        blocks = task.input_mb / self.config.block_mb
        local = machine.machine_id in task.preferred_hosts
        attempt.local = local

        io_work = profile.map_io_seconds * blocks / machine.effective_io_speed
        network_time = 0.0
        flow = None
        if not local:
            source = self.jobtracker.placer.pick_remote_source(
                task.preferred_hosts, machine.machine_id
            )
            network = self.jobtracker.cluster.network
            network_time = network.transfer_time(source, machine.machine_id, task.input_mb)
            io_work *= self.config.remote_read_penalty
            flow = (source, machine.machine_id)
            network.begin_flow(*flow)

        io_time = (
            (io_work + network_time)
            * machine.io_contention()
            * self.noise.duration_factor(self.rng)
        )
        cpu_time = (
            profile.map_cpu_seconds
            * blocks
            / machine.effective_cpu_speed
            * machine.cpu_contention(profile.map_cores)
            * self.noise.duration_factor(self.rng)
        )

        io_util = min(self.config.io_phase_cores, spec.cores) / spec.cores
        cpu_util = min(profile.map_cores, spec.cores) / spec.cores
        try:
            # Phase 1: input read (+ remote fetch) and spill.
            machine.io_begin()
            machine.add_cpu_load(self.config.io_phase_cores)
            phase_started = self.sim.now
            try:
                yield self.sim.timeout(io_time)
            finally:
                machine.io_end()
                machine.remove_cpu_load(self.config.io_phase_cores)
                attempt.core_seconds += (
                    self.sim.now - phase_started
                ) * self.config.io_phase_cores
                if flow is not None:
                    self.jobtracker.cluster.network.end_flow(*flow)
                    flow = None
            attempt.phases["io"] = io_time

            # Phase 2: the map function itself.
            machine.add_cpu_load(profile.map_cores)
            phase_started = self.sim.now
            try:
                yield self.sim.timeout(cpu_time)
            finally:
                machine.remove_cpu_load(profile.map_cores)
                attempt.core_seconds += (
                    self.sim.now - phase_started
                ) * profile.map_cores
            attempt.phases["cpu"] = cpu_time
        except Interrupt:
            self._finish_attempt(attempt, succeeded=False)
            return

        total = io_time + cpu_time
        attempt.avg_utilization = (
            (io_util * io_time + cpu_util * cpu_time) / total if total > 0 else 0.0
        )
        attempt.samples = samples_from_phases(
            [(io_time, io_util), (cpu_time, cpu_util)],
            delta_t=self.config.heartbeat_interval,
            noise_factors=lambda n: self.noise.utilization_factors(self.rng, n),
        )
        self._finish_attempt(attempt, succeeded=True)

    # ------------------------------------------------------- reduce execution
    def _run_reduce(self, attempt: TaskAttempt) -> Generator:
        task = attempt.task
        job = task.job
        machine = self.machine
        spec = machine.spec
        profile = job.profile
        shuffle_mb = task.input_mb

        network = self.jobtracker.cluster.network
        # Shuffle streams from many mappers; model the aggregate as one flow
        # bottlenecked at this reducer's NIC.
        bandwidth = network.nic_mb_per_s / (network.flows_at(machine.machine_id) + 1)
        transfer_all = shuffle_mb / bandwidth if shuffle_mb > 0 else 0.0
        flow = (machine.machine_id, machine.machine_id)
        network.begin_flow(*flow)

        io_util = min(self.config.io_phase_cores, spec.cores) / spec.cores
        shuffle_started = self.sim.now
        try:
            machine.io_begin()
            machine.add_cpu_load(self.config.io_phase_cores)
            try:
                # Shuffle cannot complete before the job's last map finishes:
                # copy what exists, then drain the final wave's output.
                if not job.maps_done:
                    yield job.maps_done_event
                elapsed = self.sim.now - shuffle_started
                residual = max(transfer_all - elapsed, 0.1 * transfer_all)
                residual *= self.noise.duration_factor(self.rng)
                yield self.sim.timeout(residual)
            finally:
                machine.io_end()
                machine.remove_cpu_load(self.config.io_phase_cores)
                attempt.core_seconds += (
                    self.sim.now - shuffle_started
                ) * self.config.io_phase_cores
                network.end_flow(*flow)
            attempt.phases["shuffle"] = self.sim.now - shuffle_started

            # Sort/merge (IO-bound).
            sort_time = (
                profile.reduce_io_per_mb
                * shuffle_mb
                / machine.effective_io_speed
                * machine.io_contention()
                * self.noise.duration_factor(self.rng)
            )
            machine.io_begin()
            machine.add_cpu_load(self.config.io_phase_cores)
            phase_started = self.sim.now
            try:
                yield self.sim.timeout(sort_time)
            finally:
                machine.io_end()
                machine.remove_cpu_load(self.config.io_phase_cores)
                attempt.core_seconds += (
                    self.sim.now - phase_started
                ) * self.config.io_phase_cores
            attempt.phases["sort"] = sort_time

            # The reduce function (CPU-bound).
            reduce_time = (
                profile.reduce_cpu_per_mb
                * shuffle_mb
                / machine.effective_cpu_speed
                * machine.cpu_contention(profile.reduce_cores)
                * self.noise.duration_factor(self.rng)
            )
            machine.add_cpu_load(profile.reduce_cores)
            phase_started = self.sim.now
            try:
                yield self.sim.timeout(reduce_time)
            finally:
                machine.remove_cpu_load(profile.reduce_cores)
                attempt.core_seconds += (
                    self.sim.now - phase_started
                ) * profile.reduce_cores
            attempt.phases["reduce"] = reduce_time
        except Interrupt:
            self._finish_attempt(attempt, succeeded=False)
            return

        cpu_util = min(profile.reduce_cores, spec.cores) / spec.cores
        shuffle_time = attempt.phases["shuffle"]
        total = shuffle_time + sort_time + reduce_time
        attempt.avg_utilization = (
            (io_util * (shuffle_time + sort_time) + cpu_util * reduce_time) / total
            if total > 0
            else 0.0
        )
        attempt.samples = samples_from_phases(
            [(shuffle_time, io_util), (sort_time, io_util), (reduce_time, cpu_util)],
            delta_t=self.config.heartbeat_interval,
            noise_factors=lambda n: self.noise.utilization_factors(self.rng, n),
        )
        self._finish_attempt(attempt, succeeded=True)
