"""Open-loop synthetic load for the serve daemon.

The generator models a fleet of remote TaskTrackers without simulating
them: each virtual tracker heartbeats at whatever aggregate rate was
asked for (open loop — the send schedule never waits for responses, so a
slow server shows up as latency, not as a lower offered rate), accepts
whatever assignments come back, holds the slots for a fixed service time,
and then ships a synthetic completion report.  A submit schedule keeps
pending work in the scheduler so heartbeats have something to win.

Everything runs on one asyncio loop over ``connections`` sockets with
per-connection tracker shards; responses are matched to requests by the
echoed ``seq`` field, which is what makes the measured round-trip times
honest under pipelining.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster import paper_fleet, procedural_fleet
from ..core.service import TrackerInfo
from ..workloads import TraceSpec
from .protocol import encode

__all__ = ["LoadGenerator", "LoadgenStats", "fleet_tracker_infos"]

#: Pacing granularity of the open-loop senders: heartbeats are emitted in
#: batches every this many seconds, because per-message ``sleep()`` calls
#: cannot pace 10k+ messages/sec (the event loop's timer resolution is
#: coarser than the inter-arrival gap).
BATCH_SECONDS = 0.005

#: The fixed submit schedule: this job every ``SUBMIT_INTERVAL`` wall
#: seconds, the first right after registration.
SUBMIT_MESSAGE = encode(
    {"type": "submit", "application": "terasort", "input_gb": 4.0, "num_reduces": 8}
)
SUBMIT_INTERVAL = 0.5


def fleet_tracker_infos(nodes: Optional[int] = None, seed: int = 3) -> List[TrackerInfo]:
    """Virtual-tracker registrations matching a serve engine's fleet.

    Machine ids are assigned exactly as :class:`~repro.cluster.Cluster`
    assigns them — fleet order, then count order — so a load generator in
    a different process from the daemon derives the same ids from the
    same ``(nodes, seed)`` without talking to it.
    """
    fleet = paper_fleet() if nodes is None else procedural_fleet(nodes, seed)
    infos: List[TrackerInfo] = []
    machine_id = 0
    for spec, count in fleet:
        for _ in range(count):
            infos.append(
                TrackerInfo(
                    machine_id=machine_id,
                    hostname=f"{spec.model.lower()}-{machine_id:02d}",
                    model=spec.model,
                    map_slots=spec.map_slots,
                    reduce_slots=spec.reduce_slots,
                )
            )
            machine_id += 1
    return infos


class _VirtualTracker:
    """Client-side slot bookkeeping for one simulated TaskTracker."""

    __slots__ = ("info", "running_maps", "running_reduces")

    def __init__(self, info: TrackerInfo) -> None:
        self.info = info
        self.running_maps = 0
        self.running_reduces = 0

    def heartbeat_fields(self) -> Dict[str, Any]:
        # Free counts clamp at zero: pipelined heartbeats race in-flight
        # assignments, so the client can briefly be over-committed — a
        # real TaskTracker in that state reports no capacity, not a
        # negative number (which the wire validator would reject).
        info = self.info
        return {
            "type": "heartbeat",
            "machine_id": info.machine_id,
            "free_map_slots": max(0, info.map_slots - self.running_maps),
            "free_reduce_slots": max(0, info.reduce_slots - self.running_reduces),
            "running_maps": self.running_maps,
            "running_reduces": self.running_reduces,
        }


@dataclass
class LoadgenStats:
    """What one load-generation run measured."""

    offered_rate: float
    duration_seconds: float
    heartbeats_sent: int = 0
    responses_received: int = 0
    assignments_received: int = 0
    reports_sent: int = 0
    jobs_submitted: int = 0
    errors: int = 0
    rtts: List[float] = field(default_factory=list)
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def achieved_heartbeats_per_sec(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.heartbeats_sent / self.duration_seconds

    def rtt_quantile(self, q: float) -> float:
        """RTT quantile in seconds (nearest-rank on the raw samples)."""
        if not self.rtts:
            return 0.0
        ordered = sorted(self.rtts)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
        return ordered[index]

    def summary(self) -> Dict[str, Any]:
        return {
            "offered_rate": self.offered_rate,
            "duration_seconds": self.duration_seconds,
            "heartbeats_sent": self.heartbeats_sent,
            "achieved_heartbeats_per_sec": self.achieved_heartbeats_per_sec,
            "responses_received": self.responses_received,
            "assignments_received": self.assignments_received,
            "reports_sent": self.reports_sent,
            "jobs_submitted": self.jobs_submitted,
            "errors": self.errors,
            "rtt_ms": {
                "p50": self.rtt_quantile(0.50) * 1e3,
                "p99": self.rtt_quantile(0.99) * 1e3,
                "max": (max(self.rtts) if self.rtts else 0.0) * 1e3,
            },
            "server_stats": self.server_stats,
        }


class LoadGenerator:
    """Drive one daemon endpoint at a fixed offered heartbeat rate.

    Parameters
    ----------
    rate:
        Aggregate heartbeats per second across all connections.
    duration:
        Wall-clock seconds to keep sending.
    trackers:
        Virtual trackers to register and heartbeat as (see
        :func:`fleet_tracker_infos`).
    connections:
        Parallel sockets; trackers are sharded round-robin across them.
    service_time:
        Wall seconds an accepted task holds its slot before the
        completion report goes back.
    time_scale:
        Must match the daemon's: converts the service time into simulated
        seconds for the synthetic report's timing fields.
    trace:
        Optional :class:`~repro.workloads.TraceSpec` to replay instead of
        the fixed submit schedule: each row is submitted when the wall
        clock reaches ``arrival_time / time_scale``, so the daemon sees
        the trace's arrival curve in simulated time.  Arrivals past the
        run ``duration`` never fire (the replay is cut with the senders).
    """

    def __init__(
        self,
        *,
        rate: float,
        duration: float,
        trackers: Sequence[TrackerInfo],
        connections: int = 4,
        service_time: float = 1.0,
        time_scale: float = 1.0,
        trace: Optional[TraceSpec] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not trackers:
            raise ValueError("need at least one tracker")
        if connections < 1:
            raise ValueError("need at least one connection")
        if trace is not None and not (time_scale > 0):
            raise ValueError("trace replay needs a positive time_scale")
        self.rate = rate
        self.duration = duration
        self.connections = min(connections, len(trackers))
        self.service_time = service_time
        self.time_scale = time_scale
        self.trace = trace
        # Pre-rendered replay schedule: (wall seconds from start, message).
        # TraceJob defaults are materialized at validation time, so the
        # demand fields are always concrete numbers here.
        self._trace_schedule: List[Tuple[float, Dict[str, Any]]] = []
        if trace is not None:
            self._trace_schedule = [
                (
                    job.arrival_time / self.time_scale,
                    {
                        "type": "submit",
                        "application": job.application,
                        "input_mb": job.input_mb,
                        "num_reduces": job.num_reduces,
                    },
                )
                for job in trace.jobs
            ]
        self._shards: List[List[_VirtualTracker]] = [
            [] for _ in range(self.connections)
        ]
        for index, info in enumerate(trackers):
            self._shards[index % self.connections].append(_VirtualTracker(info))
        self._trackers_by_id = {
            t.info.machine_id: t for shard in self._shards for t in shard
        }
        self._attempt_counts: Dict[str, int] = {}
        self._seq = 0
        self.stats = LoadgenStats(offered_rate=rate, duration_seconds=duration)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------- run
    async def run(self, open_connection) -> LoadgenStats:
        """Execute the load run.

        ``open_connection`` is an async nullary factory returning a
        ``(reader, writer)`` pair — wrap ``asyncio.open_connection`` or
        ``asyncio.open_unix_connection`` with the endpoint baked in.
        """
        conns = [await open_connection() for _ in range(self.connections)]
        pending: Dict[int, float] = {}
        report_queues: List[asyncio.Queue] = [asyncio.Queue() for _ in conns]
        stats_future: asyncio.Future = asyncio.get_running_loop().create_future()

        receivers = [
            asyncio.ensure_future(
                self._receiver(reader, index, pending, report_queues, stats_future)
            )
            for index, (reader, _writer) in enumerate(conns)
        ]

        # Phase 1: register every shard's trackers and seed the first job.
        # Trace replay supplies its own arrivals, starting at t=0 — no seed.
        for index, (_reader, writer) in enumerate(conns):
            for tracker in self._shards[index]:
                writer.write(encode({"type": "register", **tracker.info.to_wire()}))
            await writer.drain()
        if self.trace is None:
            await self._submit_one(conns[0][1])

        # Phase 2: open-loop heartbeat senders plus the submit schedule.
        senders = [
            asyncio.ensure_future(
                self._sender(writer, index, pending, report_queues[index])
            )
            for index, (_reader, writer) in enumerate(conns)
        ]
        submitter = asyncio.ensure_future(
            self._trace_submitter(conns[0][1])
            if self.trace is not None
            else self._submitter(conns[0][1])
        )
        await asyncio.gather(*senders)
        submitter.cancel()

        # Phase 3: grace for in-flight replies, then fetch server stats.
        await asyncio.sleep(min(0.5, self.duration / 4))
        _reader0, writer0 = conns[0]
        writer0.write(encode({"type": "stats", "seq": self._next_seq()}))
        await writer0.drain()
        try:
            self.stats.server_stats = await asyncio.wait_for(stats_future, timeout=5.0)
        except asyncio.TimeoutError:
            self.stats.server_stats = None

        for _reader, writer in conns:
            writer.close()
        for receiver in receivers:
            receiver.cancel()
        await asyncio.gather(*receivers, return_exceptions=True)
        return self.stats

    # ---------------------------------------------------------------- senders
    async def _sender(
        self,
        writer: asyncio.StreamWriter,
        index: int,
        pending: Dict[int, float],
        reports: asyncio.Queue,
    ) -> None:
        loop = asyncio.get_running_loop()
        shard = self._shards[index]
        per_conn_rate = self.rate / self.connections
        deadline = loop.time() + self.duration
        next_batch = loop.time()
        carry = 0.0
        cursor = 0
        stats = self.stats
        while loop.time() < deadline:
            # Completion reports ride the same socket, ahead of the batch.
            while not reports.empty():
                writer.write(reports.get_nowait())
                stats.reports_sent += 1
            carry += per_conn_rate * BATCH_SECONDS
            burst = int(carry)
            carry -= burst
            for _ in range(burst):
                tracker = shard[cursor % len(shard)]
                cursor += 1
                seq = self._next_seq()
                message = tracker.heartbeat_fields()
                message["seq"] = seq
                pending[seq] = perf_counter()
                writer.write(encode(message))
                stats.heartbeats_sent += 1
            await writer.drain()
            next_batch += BATCH_SECONDS
            delay = next_batch - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                # Open loop fell behind; yield so receivers keep draining.
                next_batch = loop.time()
                await asyncio.sleep(0)

    async def _submitter(self, writer: asyncio.StreamWriter) -> None:
        while True:
            await asyncio.sleep(SUBMIT_INTERVAL)
            await self._submit_one(writer)

    async def _trace_submitter(self, writer: asyncio.StreamWriter) -> None:
        """Replay the trace's arrival schedule against the wall clock.

        Paced absolutely from the run start (not sleep-to-sleep), so a
        slow drain does not push later arrivals: the offered schedule
        stays open-loop like the heartbeat senders.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        for wall, message in self._trace_schedule:
            delay = start + wall - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(encode(message))
            self.stats.jobs_submitted += 1
            await writer.drain()

    async def _submit_one(self, writer: asyncio.StreamWriter) -> None:
        writer.write(SUBMIT_MESSAGE)
        self.stats.jobs_submitted += 1
        await writer.drain()

    # -------------------------------------------------------------- receivers
    async def _receiver(
        self,
        reader: asyncio.StreamReader,
        index: int,
        pending: Dict[int, float],
        report_queues: List[asyncio.Queue],
        stats_future: asyncio.Future,
    ) -> None:
        loop = asyncio.get_running_loop()
        stats = self.stats
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.CancelledError):
                return
            if not line:
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                stats.errors += 1
                continue
            seq = message.get("seq")
            if seq is not None:
                started = pending.pop(seq, None)
                if started is not None:
                    stats.rtts.append(perf_counter() - started)
            mtype = message.get("type")
            if mtype == "assignment":
                stats.responses_received += 1
                directives = message.get("directives") or []
                if directives:
                    self._accept_assignments(loop, message, directives, report_queues[index])
            elif mtype == "stats":
                if not stats_future.done():
                    stats_future.set_result(message)
            elif mtype == "error":
                stats.errors += 1

    def _accept_assignments(
        self,
        loop: asyncio.AbstractEventLoop,
        message: Dict[str, Any],
        directives: List[Dict[str, Any]],
        reports: asyncio.Queue,
    ) -> None:
        tracker = self._trackers_by_id.get(message.get("machine_id"))
        if tracker is None:
            self.stats.errors += 1
            return
        assigned_at = float(message.get("now", 0.0))
        for directive in directives:
            self.stats.assignments_received += 1
            task_id = directive["task_id"]
            kind = directive["kind"]
            if kind == "map":
                tracker.running_maps += 1
            else:
                tracker.running_reduces += 1
            attempt_number = self._attempt_counts.get(task_id, 0)
            self._attempt_counts[task_id] = attempt_number + 1
            service_sim = self.service_time * self.time_scale
            report = encode(
                {
                    "type": "report",
                    "task_id": task_id,
                    "attempt_id": f"attempt_{task_id}_{attempt_number}",
                    "kind": kind,
                    "machine_id": tracker.info.machine_id,
                    "start_time": assigned_at,
                    "finish_time": assigned_at + service_sim,
                    "avg_utilization": 0.5,
                    "local": True,
                    "samples": [[0.5, service_sim]],
                    "phases": {"cpu": service_sim},
                }
            )
            loop.call_later(
                self.service_time,
                self._release,
                tracker,
                kind,
                reports,
                report,
            )

    def _release(
        self,
        tracker: _VirtualTracker,
        kind: str,
        reports: asyncio.Queue,
        report: bytes,
    ) -> None:
        if kind == "map":
            tracker.running_maps -= 1
        else:
            tracker.running_reduces -= 1
        reports.put_nowait(report)
