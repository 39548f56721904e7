"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

The injector registers one simulator callback per planned event
(:meth:`attach`), so faults fire deterministically at their scheduled
times regardless of what the workload is doing.  All fault randomness —
today only the flaky-heartbeat drop draws — comes from the dedicated
``"faults"`` RNG stream, so adding or removing fault events never perturbs
the workload's own noise streams (the common-random-numbers discipline the
runner's bit-identity guarantees rest on).

After the run, :meth:`recovery_summary` walks the job inventory and
reduces each disruptive fault to a :class:`FaultRecovery` record: how many
in-flight tasks it killed and how long until the last of them finished on
another machine (the per-fault time-to-recover that lands in
:class:`~repro.runner.record.RunRecord`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..cluster import Cluster
from ..cluster.catalog import spec_by_name
from ..hadoop.config import HadoopConfig
from ..hadoop.tasktracker import TaskTracker
from ..noise import NO_NOISE, NoiseModel
from ..observability.tracer import NULL_TRACER, EventType
from ..simulation import RandomStreams, Simulator
from .plan import FaultEvent, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..hadoop.jobtracker import JobTracker

__all__ = ["FaultInjector", "FaultRecovery"]


@dataclass(frozen=True)
class FaultRecovery:
    """Post-run summary of one executed fault event (picklable)."""

    time: float
    kind: str
    machine_id: Optional[int]
    #: tasks whose in-flight attempt this fault killed
    tasks_disrupted: int
    #: seconds from the fault until the last disrupted task completed
    #: elsewhere (0.0 when nothing was disrupted)
    recovery_seconds: float


class FaultInjector:
    """Drives a :class:`FaultPlan` against a live simulation stack.

    Parameters
    ----------
    plan:
        The schedule to execute.
    sim, cluster, jobtracker:
        The running stack the faults act on.
    config, noise:
        Framework config and noise model for TaskTrackers spawned by
        ``join`` events (the same objects the engine built the original
        trackers with).
    streams:
        The run's :class:`~repro.simulation.RandomStreams`; the injector
        takes its ``"faults"`` stream and derives ``tt-<id>`` streams for
        joined machines, mirroring the engine's convention.
    trackers:
        The TaskTrackers built at cluster construction (joined machines
        are added as their events fire).
    tracer:
        Trace sink for ``fault.injected`` events.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        cluster: Cluster,
        jobtracker: "JobTracker",
        config: HadoopConfig,
        streams: RandomStreams,
        trackers: Sequence[TaskTracker],
        noise: NoiseModel = NO_NOISE,
        tracer=NULL_TRACER,
    ) -> None:
        self.plan = plan
        self.sim = sim
        self.cluster = cluster
        self.jobtracker = jobtracker
        self.config = config
        self.noise = noise
        self.streams = streams
        self.tracer = tracer
        self.rng = streams.stream("faults")
        self.trackers: Dict[int, TaskTracker] = {
            tracker.machine.machine_id: tracker for tracker in trackers
        }
        #: (event, tasks_disrupted) for every fault that has fired
        self.executed: List[tuple] = []
        #: machine ids commissioned by join events, in firing order
        self.joined_machine_ids: List[int] = []

    # -------------------------------------------------------------- lifecycle
    def attach(self) -> None:
        """Register one simulator callback per planned event."""
        for event in self.plan.events:
            self.sim.call_at(event.time, lambda e=event: self._execute(e))

    # -------------------------------------------------------------- execution
    def _tracker(self, event: FaultEvent) -> TaskTracker:
        try:
            return self.trackers[event.machine_id]
        except KeyError:
            raise RuntimeError(
                f"{event.kind.value} at t={event.time:g} targets machine "
                f"{event.machine_id}, which does not exist"
            ) from None

    def _execute(self, event: FaultEvent) -> None:
        disrupted = 0
        if event.kind is FaultKind.CRASH:
            tracker = self._tracker(event)
            disrupted = tracker.running_maps + tracker.running_reduces
            tracker.crash()
        elif event.kind is FaultKind.RECOVER:
            self._tracker(event).recover()
        elif event.kind is FaultKind.JOIN:
            self._join(event)
        elif event.kind is FaultKind.DECOMMISSION:
            disrupted = self._decommission(event)
        elif event.kind is FaultKind.SLOWDOWN:
            self._slowdown(event)
        elif event.kind is FaultKind.FLAKY_HEARTBEATS:
            self._flaky(event)
        self.executed.append((event, disrupted))
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.FAULT_INJECTED,
                self.sim.now,
                kind=event.kind.value,
                machine_id=(
                    self.joined_machine_ids[-1]
                    if event.kind is FaultKind.JOIN
                    else event.machine_id
                ),
                model=event.model,
                factor=event.factor,
                duration=event.duration,
                drop_probability=event.drop_probability,
                tasks_disrupted=disrupted,
            )

    def _join(self, event: FaultEvent) -> None:
        spec = spec_by_name(event.model or "")
        machine = self.cluster.add_machine(spec)
        tracker = TaskTracker(
            self.sim,
            machine,
            self.config,
            noise=self.noise,
            rng=self.streams.stream(f"tt-{machine.machine_id}"),
        )
        self.trackers[machine.machine_id] = tracker
        tracker.start(self.jobtracker)
        self.jobtracker.scheduler.on_machine_added(machine)
        self.joined_machine_ids.append(machine.machine_id)

    def _decommission(self, event: FaultEvent) -> int:
        tracker = self._tracker(event)
        machine = tracker.machine
        disrupted = tracker.running_maps + tracker.running_reduces
        # Graceful removal: stop the daemon, requeue its work now (no
        # expiry wait), power the box off, and tell the scheduler.
        tracker.crash()
        self.jobtracker.expire_tracker(machine.machine_id)
        machine.decommission()
        self.jobtracker.scheduler.on_machine_removed(machine)
        return disrupted

    def _slowdown(self, event: FaultEvent) -> None:
        machine = self.cluster.machine(self._tracker(event).machine.machine_id)
        assert event.factor is not None
        machine.set_speed_scale(event.factor)
        if event.duration is not None:
            self.sim.call_at(
                event.time + event.duration,
                lambda m=machine: self._restore_speed(m),
            )

    @staticmethod
    def _restore_speed(machine) -> None:
        if not machine.decommissioned:
            machine.set_speed_scale(1.0)

    def _flaky(self, event: FaultEvent) -> None:
        tracker = self._tracker(event)
        assert event.drop_probability is not None
        tracker.set_flaky(event.drop_probability, self.rng)
        if event.duration is not None:
            self.sim.call_at(
                event.time + event.duration,
                lambda t=tracker: t.set_flaky(0.0, None),
            )

    # ---------------------------------------------------------------- summary
    def recovery_summary(self) -> List[FaultRecovery]:
        """Reduce each executed fault to its :class:`FaultRecovery` record.

        A task counts as disrupted by a fault if one of its attempts was
        killed on the fault's machine while running across the fault
        instant; its recovery point is the finish time of its eventual
        successful attempt.  Call after the simulation has drained.
        """
        records: List[FaultRecovery] = []
        for event, disrupted in self.executed:
            recovery_seconds = 0.0
            if event.kind in (FaultKind.CRASH, FaultKind.DECOMMISSION) and disrupted:
                last_finish = event.time
                for job in self.jobtracker.jobs.values():
                    for task in job.maps + job.reduces:
                        hit = any(
                            attempt.killed
                            and attempt.machine_id == event.machine_id
                            and attempt.start_time <= event.time
                            and (attempt.finish_time or event.time) >= event.time
                            for attempt in task.attempts
                        )
                        if not hit:
                            continue
                        for attempt in task.attempts:
                            if attempt.succeeded and attempt.finish_time is not None:
                                last_finish = max(last_finish, attempt.finish_time)
                recovery_seconds = last_finish - event.time
            records.append(
                FaultRecovery(
                    time=event.time,
                    kind=event.kind.value,
                    machine_id=(
                        None if event.kind is FaultKind.JOIN else event.machine_id
                    ),
                    tasks_disrupted=disrupted,
                    recovery_seconds=recovery_seconds,
                )
            )
        return records
