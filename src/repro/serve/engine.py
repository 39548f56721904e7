"""The headless scheduling engine behind ``repro serve``.

A :class:`ServeEngine` hosts the same
:class:`~repro.core.service.LocalSchedulerCore` the DES drives, but with
no TaskTracker processes and no event-driven workload: heartbeats, task
reports, and job submissions arrive as wire messages (dicts parsed off
the NDJSON socket by :mod:`repro.serve.daemon`, or fed directly by
tests), and the :class:`~repro.simulation.Simulator` is reduced to a
passive clock-and-callback pump.  Its heap holds only the urgent
dispatches ``Job.complete_task`` schedules when a barrier fires and the
timeout of the JobTracker's own control loop (started by policies that
re-optimize per interval, as in the DES), so each control interval fires
at its exact deadline when a message moves the clock past it.

The engine is deliberately synchronous and single-threaded: the asyncio
daemon serializes message handling on its event loop, which is exactly
the concurrency model of the real JobTracker's heartbeat RPC handler
(one global lock around the scheduler).  That serialization is also what
makes record/replay parity with the DES possible — see
``tests/serve/test_parity.py``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

from ..cluster import Cluster, Network, paper_fleet, procedural_fleet
from ..core.service import (
    HeartbeatRequest,
    TrackerInfo,
    WireError,
    report_fields_from_wire,
    wire_float,
)
from ..hadoop import BlockPlacer, HadoopConfig, Job, JobTracker, TaskAttempt, TaskState
from ..observability.metrics import Histogram
from ..observability.telemetry import LATENCY_BUCKETS
from ..runner.engine import make_scheduler
from ..simulation import RandomStreams, Simulator
from ..workloads import JobSpec, WorkloadProfile
from ..workloads.benchmarks import profile_by_name

__all__ = ["ServeEngine", "job_from_wire"]


def job_from_wire(sim: Simulator, data: Dict[str, Any], block_mb: float) -> Job:
    """Rebuild a fully-described job from its wire form.

    The inverse of :func:`repro.core.service.job_to_wire`: the profile is
    embedded (no registry lookup), and per-map input sizes / replica
    placements travel explicitly because the recording host already drew
    its skew and HDFS randomness.
    """
    try:
        profile = WorkloadProfile(**data["profile"])
        spec = JobSpec(
            profile=profile,
            input_mb=float(data["input_mb"]),
            num_reduces=int(data["num_reduces"]),
            submit_time=float(data.get("submit_time", 0.0)),
            pool=str(data.get("pool", "default")),
            size_class=data.get("size_class"),
            name=str(data.get("name", "")),
        )
        return Job(
            sim=sim,
            job_id=int(data["job_id"]),
            spec=spec,
            block_mb=block_mb,
            map_input_sizes=[float(s) for s in data["map_input_sizes"]],
            replica_hosts=[tuple(int(h) for h in hosts) for hosts in data["replica_hosts"]],
        )
    except WireError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireError(f"bad job description: {exc}") from exc


class ServeEngine:
    """Message-driven host of one scheduler core.

    Parameters
    ----------
    scheduler:
        Scheduler name (``"e-ant"``, ``"fair"``, ``"tarazu"``, ... — any
        of :data:`~repro.runner.engine.SCHEDULER_NAMES`).
    seed:
        Seeds the named RNG streams (the ``"eant"`` policy stream, HDFS
        placement for convenience submissions), so two daemons started
        with the same seed and fed the same message sequence make the
        same decisions.
    nodes:
        Procedural-fleet size; ``None`` (default) serves the paper's
        16-slave testbed.
    config, eant_config:
        Hadoop framework / E-Ant policy configuration overrides.
    trust_wire_now:
        When true (replay, tests, benchmarks) the ``now`` field of each
        message drives the clock; when false the host (daemon) stamps
        message times itself.
    """

    def __init__(
        self,
        *,
        scheduler: str = "e-ant",
        seed: int = 3,
        nodes: Optional[int] = None,
        config: Optional[HadoopConfig] = None,
        eant_config=None,
        trust_wire_now: bool = True,
    ) -> None:
        self.sim = Simulator()
        streams = RandomStreams(seed)
        fleet = paper_fleet() if nodes is None else procedural_fleet(nodes, seed)
        self.cluster = Cluster(self.sim, list(fleet), Network())
        self.config = config if config is not None else HadoopConfig()
        placer = BlockPlacer(self.cluster, self.config.replication, streams.stream("hdfs"))
        policy = make_scheduler(scheduler, streams, eant_config)
        self.jobtracker = JobTracker(
            self.sim,
            self.cluster,
            self.config,
            policy,
            placer,
            skew_noise=None,
            rng=streams.stream("skew"),
        )
        self.core = self.jobtracker.core
        self.trust_wire_now = trust_wire_now
        self._machine_ids = {machine.machine_id for machine in self.cluster}
        #: Attempts handed out and not yet reported, by id.  A speculated task
        #: has two, and the wire has no kill message: both report.
        self._open_attempts: Dict[str, TaskAttempt] = {}
        #: wall-clock latency of each assignment decision (``core.heartbeat``),
        #: in the same log-spaced buckets the DES telemetry sink uses.
        self.decision_latency = Histogram(buckets=LATENCY_BUCKETS)
        self.started_monotonic = perf_counter()
        self.messages_handled = 0
        self.errors = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        return self.sim.now

    def _pump(self, now: float) -> None:
        """Advance the passive sim clock, dispatching any due callbacks
        (including control intervals whose deadline the clock passes).

        Never moves backwards: messages carrying stale timestamps are
        handled at the current clock (the real JobTracker does the same —
        it trusts its own clock, not the reporter's).
        """
        if now > self.sim.now:
            self.sim.run(until=now)
        elif self.sim.peek() <= self.sim.now:
            # Same-time urgent dispatches (job-completion barriers).
            self.sim.run(until=self.sim.now)

    def _resolve_now(self, message: Dict[str, Any]) -> float:
        if self.trust_wire_now and "now" in message:
            return max(wire_float("now", message["now"]), self.sim.now)
        return self.sim.now

    # --------------------------------------------------------------- dispatch
    def handle(self, message: Dict[str, Any], now: Optional[float] = None) -> Dict[str, Any]:
        """Process one wire message and return the reply dict.

        ``now`` (host-stamped time, simulation-seconds scale) overrides
        the message's own ``now`` field; the daemon passes its wall-clock
        offset here.  Raises nothing: malformed or unserviceable messages
        come back as ``{"type": "error", ...}`` so one bad client cannot
        take the daemon down.
        """
        self.messages_handled += 1
        try:
            mtype = message.get("type")
            if not isinstance(mtype, str):
                raise WireError("message needs a string 'type' field")
            if now is None:
                now = self._resolve_now(message)
            else:
                now = max(float(now), self.sim.now)
            handler = self._HANDLERS.get(mtype)
            if handler is None:
                raise WireError(f"unknown message type {mtype!r}")
            reply = handler(self, message, now)
        except WireError as exc:
            self.errors += 1
            reply = {"type": "error", "message": str(exc)}
        if "seq" in message:
            reply["seq"] = message["seq"]
        return reply

    # --------------------------------------------------------------- handlers
    def _handle_register(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        info = TrackerInfo.from_wire(message)
        if info.machine_id not in self._machine_ids:
            raise WireError(
                f"machine_id {info.machine_id} is not in the {len(self._machine_ids)}-node fleet"
            )
        self._pump(now)
        self.core.register_tracker(info)
        return {"type": "ok", "machine_id": info.machine_id}

    def _handle_heartbeat(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        request = HeartbeatRequest.from_wire(message, now)
        machine_id = request.machine_id
        core = self.core
        info = core.trackers.get(machine_id)
        if info is None:
            raise WireError(f"machine_id {machine_id} has not registered")
        if request.free_map_slots > info.map_slots or request.free_reduce_slots > info.reduce_slots:
            raise WireError(
                f"{info.hostname} offered more slots than it registered "
                f"({request.free_map_slots}/{info.map_slots} map, "
                f"{request.free_reduce_slots}/{info.reduce_slots} reduce)"
            )
        self._pump(now)
        started = perf_counter()
        response = core.heartbeat(request)
        self.decision_latency.observe(perf_counter() - started)
        # Mirror TaskTracker.launch's bookkeeping: the assignment opens an
        # attempt; the remote tracker's eventual report closes it.
        directives = response.directives
        open_attempts = self._open_attempts
        for directive in directives:
            attempt = core.resolve(directive.task_id).new_attempt(machine_id, now)
            open_attempts[attempt.attempt_id] = attempt
        # One reply dict: the response's wire form with the message type first.
        return {
            "type": "assignment",
            "machine_id": response.machine_id,
            "now": response.now,
            "directives": [directive.to_wire() for directive in directives],
        }

    def _handle_report(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        fields = report_fields_from_wire(message)
        attempt = self._open_attempts.get(fields["attempt_id"])
        if attempt is None or attempt.task.task_id != fields["task_id"]:
            try:
                self.core.resolve(fields["task_id"])
            except KeyError as exc:
                raise WireError(str(exc)) from None
            raise WireError(
                f"report for {fields['attempt_id']!r} does not match an "
                f"open attempt of {fields['task_id']!r}"
            )
        if fields["machine_id"] != attempt.machine_id:
            raise WireError(
                f"report for {fields['attempt_id']!r} came from machine "
                f"{fields['machine_id']}; the attempt runs on machine "
                f"{attempt.machine_id}"
            )
        del self._open_attempts[fields["attempt_id"]]
        self._pump(now)
        task = attempt.task
        duplicate = task.state is TaskState.COMPLETED
        attempt.finish_time = fields["finish_time"]
        attempt.succeeded = True
        attempt.avg_utilization = fields["avg_utilization"]
        attempt.samples = fields["samples"]
        attempt.local = fields["local"]
        attempt.phases = fields["phases"]
        # The DES path from here on: barrier bookkeeping, then the
        # flattened report into the core.  The first attempt to report
        # completes the task; task_finished ignores a later one.
        self.jobtracker.task_finished(None, attempt)
        # Drain the urgent dispatches complete_task may have scheduled
        # (maps-done / job-done barriers) before the next message.
        self._pump(now)
        return {"type": "ok", "task_id": task.task_id, "duplicate": duplicate}

    def _handle_submit(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        self._pump(now)
        if "job" in message:
            data = message["job"]
            if not isinstance(data, dict):
                raise WireError("field 'job' must be an object")
            job = job_from_wire(self.sim, data, self.config.block_mb)
            if job.job_id in self.jobtracker.jobs:
                raise WireError(f"job id {job.job_id} already admitted")
            self.jobtracker.submit_prepared(job)
        else:
            if "application" not in message:
                raise WireError("submit needs 'application' (or a full 'job')")
            try:
                profile = profile_by_name(str(message["application"]))
            except KeyError as exc:
                raise WireError(exc.args[0]) from None
            if "input_gb" not in message and "input_mb" not in message:
                raise WireError("submit needs 'input_gb' or 'input_mb' (or a full 'job')")
            try:
                if "input_gb" in message:
                    input_mb = float(message["input_gb"]) * 1024.0
                else:
                    input_mb = float(message["input_mb"])
                spec = JobSpec(
                    profile=profile,
                    input_mb=input_mb,
                    num_reduces=int(message.get("num_reduces", 1)),
                    submit_time=now,
                    pool=str(message.get("pool", "default")),
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise WireError(f"bad job spec: {exc}") from exc
            job = self.jobtracker.submit(spec)
        return {
            "type": "ok",
            "job_id": job.job_id,
            "num_maps": job.num_maps,
            "num_reduces": job.num_reduces,
        }

    def _handle_tick(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        self._pump(now)
        self.jobtracker.control_tick()
        return {"type": "ok", "interval_index": self.core.interval_index}

    def _handle_stats(self, message: Dict[str, Any], now: float) -> Dict[str, Any]:
        return {"type": "stats", **self.stats()}

    _HANDLERS = {
        "register": _handle_register,
        "heartbeat": _handle_heartbeat,
        "report": _handle_report,
        "submit": _handle_submit,
        "tick": _handle_tick,
        "stats": _handle_stats,
    }

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, Any]:
        """Service counters plus decision-latency quantiles (milliseconds)."""
        latency = self.decision_latency
        uptime = perf_counter() - self.started_monotonic
        jt = self.jobtracker
        return {
            "scheduler": self.core.scheduler.name,
            "uptime_seconds": uptime,
            "messages_handled": self.messages_handled,
            "errors": self.errors,
            "heartbeats": self.core.heartbeats_handled,
            "heartbeats_per_sec": (
                self.core.heartbeats_handled / uptime if uptime > 0 else 0.0
            ),
            "assignments": self.core.tasks_assigned,
            "reports": self.core.reports_handled,
            "control_intervals": self.core.interval_index,
            "jobs_active": len(jt.active_jobs),
            "jobs_completed": len(jt.completed_jobs),
            "trackers": len(self.core.trackers),
            "decision_latency_ms": {
                "count": latency.count,
                "mean": latency.mean * 1e3,
                "p50": latency.quantile(0.50) * 1e3,
                "p99": latency.quantile(0.99) * 1e3,
                "max": (latency.max if latency.count else 0.0) * 1e3,
            },
        }

    def shutdown(self) -> Dict[str, Any]:
        """Stop admitting work; returns the final stats snapshot."""
        self.jobtracker.shutdown()
        return self.stats()
