"""Open-loop heartbeat client for the ``serve-hb`` workload.

One client process drives one daemon (``daemon.py``, spawned as a child)
over two UNIX-socket connections.  Heartbeats follow a fixed schedule:
heartbeat ``i`` is *due* at ``t0 + i / rate`` whatever the daemon does, and
every round-trip time is taken from that due time, so a stall shows up as
latency on every heartbeat queued behind it.  The schedule never resets
when the client falls behind; how late the sender ran is reported on its
own (``lateness``).  Accepted tasks hold their slot for ``SERVICE_S`` wall
seconds and are then reported complete; a job is submitted every
``SUBMIT_EVERY_S`` seconds so heartbeats keep finding work.

Daemon cost is read from ``/proc/<pid>`` outside the daemon: CPU time from
``schedstat`` (nanoseconds) and peak RSS from ``VmHWM``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from daemon import TIME_SCALE
from workloads import fail, new_repeat

#: Offered heartbeat rate (per second), about half the daemon's knee.
RATE = 4000.0
#: Measured open-loop window per repeat (wall seconds).
DURATION_S = 4.0
CONNECTIONS = 2
SERVICE_S = 0.05
SUBMIT_EVERY_S = 0.5
#: A heartbeat meets its objective if its reply arrives this soon after due.
SLO_S = 0.050
#: Wait this long after the window for outstanding replies.
GRACE_S = 3.0
SOCKET = "hb.sock"
APPLICATIONS = ("terasort", "wordcount", "grep")


def job_templates(seed: int, count: int = 16) -> List[Dict[str, Any]]:
    """The submit-message cycle derived from ``seed``.

    The seed picks each job's application; every job has the same size, so
    the task count per window does not change with the seed.
    """
    import random

    rng = random.Random(seed)
    return [
        {"type": "submit", "application": rng.choice(APPLICATIONS), "input_gb": 3.0,
         "num_reduces": 6}
        for _ in range(count)
    ]


def daemon_cpu_s(pid: int) -> float:
    """CPU seconds used so far by every thread of ``pid``."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
            total += int(handle.read().split()[0])
    return total / 1e9


def daemon_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def wait_for_socket(path: str, process: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"daemon exited during start-up ({process.returncode})")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return
        except OSError:
            time.sleep(0.005)
        finally:
            probe.close()
    raise RuntimeError(f"daemon did not accept within {timeout} s")


class Client:
    """State of one open-loop session (all times are ``loop.time()``)."""

    def __init__(self, seed: int, pid: int) -> None:
        # Imported here, while the daemon boots, not before it is spawned.
        from repro.serve.loadgen import fleet_tracker_infos
        from repro.serve.protocol import decode, encode

        self.encode, self.decode = encode, decode
        self.pid = pid
        self.trackers = fleet_tracker_infos(None, seed)
        self.running = {t.machine_id: [0, 0] for t in self.trackers}
        started = time.perf_counter()
        self.templates = job_templates(seed)
        self.generate_s = time.perf_counter() - started
        self.seq = 0
        #: seq -> (kind, due, sent)
        self.pending: Dict[int, Tuple[str, float, float]] = {}
        self.rtt_due: List[float] = []
        self.rtt_sent: List[float] = []
        self.lateness: List[float] = []
        self.sent = {"register": 0, "heartbeat": 0, "report": 0, "submit": 0}
        self.answered = dict(self.sent)
        self.errors = 0
        self.slo_met = 0
        self.tasks_reported = 0
        self.attempts: Dict[str, int] = {}
        self.outbox: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
        self.drained = None  # asyncio.Event, set when nothing is pending
        self.stats_reply: Optional[Dict[str, Any]] = None
        self.stats_event = None

    def _message(self, kind: str, fields: Dict[str, Any], due: float, now: float) -> bytes:
        self.seq += 1
        fields["seq"] = self.seq
        self.pending[self.seq] = (kind, due, now)
        self.sent[kind] += 1
        return self.encode(fields)

    def flush_reports(self, writers) -> None:
        """Queue the completion reports released since the last flush."""
        for writer, queued in zip(writers, self.outbox):
            for data in queued:
                writer.write(data)
            queued.clear()

    def heartbeat(self, index: int, due: float, now: float) -> Tuple[int, bytes]:
        info = self.trackers[index % len(self.trackers)]
        maps, reduces = self.running[info.machine_id]
        fields = {
            "type": "heartbeat",
            "machine_id": info.machine_id,
            "free_map_slots": max(0, info.map_slots - maps),
            "free_reduce_slots": max(0, info.reduce_slots - reduces),
            "running_maps": maps,
            "running_reduces": reduces,
        }
        conn = info.machine_id % CONNECTIONS
        return conn, self._message("heartbeat", fields, due, now)

    def on_reply(self, loop, message: Dict[str, Any], now: float) -> None:
        mtype = message.get("type")
        if mtype == "stats":
            self.stats_reply = message
            self.stats_event.set()
            return
        entry = self.pending.pop(message.get("seq"), None)
        if entry is None:
            self.errors += 1
            return
        kind, due, sent = entry
        if mtype == "error":
            self.errors += 1
        else:
            self.answered[kind] += 1
            if kind == "heartbeat":
                self.rtt_due.append(now - due)
                self.rtt_sent.append(now - sent)
                if now - due <= SLO_S:
                    self.slo_met += 1
                for directive in message.get("directives") or ():
                    self._accept(loop, message, directive)
            elif kind == "report" and not message.get("duplicate"):
                self.tasks_reported += 1
        if not self.pending and self.drained is not None:
            self.drained.set()

    def _accept(self, loop, message: Dict[str, Any], directive: Dict[str, Any]) -> None:
        machine_id = message["machine_id"]
        slot = 0 if directive["kind"] == "map" else 1
        self.running[machine_id][slot] += 1
        task_id = directive["task_id"]
        attempt = self.attempts.get(task_id, 0)
        self.attempts[task_id] = attempt + 1
        assigned = float(message.get("now", 0.0))
        service = SERVICE_S * TIME_SCALE
        report = {
            "type": "report",
            "task_id": task_id,
            "attempt_id": f"attempt_{task_id}_{attempt}",
            "kind": directive["kind"],
            "machine_id": machine_id,
            "start_time": assigned,
            "finish_time": assigned + service,
            "avg_utilization": 0.5,
            "local": True,
            "samples": [[0.5, service]],
            "phases": {"cpu": service},
        }

        def release() -> None:
            self.running[machine_id][slot] -= 1
            conn = machine_id % CONNECTIONS
            now = loop.time()
            self.outbox[conn].append(self._message("report", report, now, now))

        loop.call_later(SERVICE_S, release)


async def _receive(client: Client, reader) -> None:
    loop = asyncio.get_running_loop()
    while True:
        line = await reader.readline()
        if not line:
            return
        client.on_reply(loop, client.decode(line), loop.time())


async def session(client: Client, duration: float) -> Dict[str, float]:
    """Register, then drive the open-loop window; returns the CPU window."""
    loop = asyncio.get_running_loop()
    client.drained = asyncio.Event()
    client.stats_event = asyncio.Event()
    conns = [await asyncio.open_unix_connection(SOCKET) for _ in range(CONNECTIONS)]
    writers = [writer for _reader, writer in conns]
    receivers = [asyncio.ensure_future(_receive(client, reader)) for reader, _w in conns]
    for info in client.trackers:
        now = loop.time()
        writers[info.machine_id % CONNECTIONS].write(
            client._message("register", {"type": "register", **info.to_wire()}, now, now)
        )
    for writer in writers:
        await writer.drain()
    await asyncio.sleep(0.05)

    cpu0 = daemon_cpu_s(client.pid)
    t0 = loop.time()
    end = t0 + duration
    index = 0
    submits = 0
    while True:
        now = loop.time()
        while submits * SUBMIT_EVERY_S + t0 <= min(now, end):
            due = t0 + submits * SUBMIT_EVERY_S
            template = dict(client.templates[submits % len(client.templates)])
            writers[0].write(client._message("submit", template, due, now))
            submits += 1
        client.flush_reports(writers)
        while True:
            due = t0 + index / RATE
            if due > now or due >= end:
                break
            client.lateness.append(now - due)
            conn, data = client.heartbeat(index, due, now)
            writers[conn].write(data)
            index += 1
        for writer in writers:
            await writer.drain()
        if t0 + index / RATE >= end:
            break
        await asyncio.sleep(max(0.0, t0 + index / RATE - loop.time()))

    # Wait for the replies still in flight (reports keep trickling in as
    # held slots expire; they are sent but no new heartbeats are).
    deadline = loop.time() + GRACE_S
    while client.pending and loop.time() < deadline:
        client.flush_reports(writers)
        client.drained.clear()
        try:
            await asyncio.wait_for(client.drained.wait(), timeout=0.1)
        except asyncio.TimeoutError:
            pass
    cpu1 = daemon_cpu_s(client.pid)
    window = {"cpu_s": cpu1 - cpu0, "wall_s": loop.time() - t0}

    writers[0].write(client.encode({"type": "stats"}))
    await writers[0].drain()
    await asyncio.wait_for(client.stats_event.wait(), timeout=10.0)
    window["peak_rss_mb"] = daemon_peak_rss_mb(client.pid)
    writers[0].write(client.encode({"type": "shutdown"}))
    await writers[0].drain()
    await asyncio.wait_for(asyncio.gather(*receivers, return_exceptions=True), 10.0)
    for writer in writers:
        writer.close()
    return window


def quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_serve(seed: int, workdir: Path, trace: bool) -> Dict[str, Any]:
    """One daemon session: spawn, drive for ``DURATION_S``, shut down."""
    repeat = new_repeat()
    here = Path(__file__).resolve().parent
    command = [sys.executable, str(here / "daemon.py"), "--socket", SOCKET,
               "--seed", str(seed)]
    spans_path = workdir / "daemon-spans.json"
    if trace:
        command += ["--spans-out", str(spans_path)]
    with open(workdir / "daemon.err", "wb") as err:
        process = subprocess.Popen(command, cwd=workdir, stdout=subprocess.DEVNULL,
                                   stderr=err)
    try:
        client = Client(seed, process.pid)
        repeat["generate_s"] = client.generate_s
        # Relative to the shared working directory: socket paths are
        # limited to about 100 bytes, checkout paths are not.
        wait_for_socket(SOCKET, process)
        repeat["ready_wall"] = time.time()
        window = asyncio.run(session(client, DURATION_S))
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        fail(repeat, f"daemon exited with {process.returncode}")

    sent = client.sent
    messages = sent["heartbeat"] + sent["report"] + sent["submit"]
    unanswered = len(client.pending)
    server = client.stats_reply or {}
    repeat["attempted"] = sum(sent.values())
    repeat["failed"] = client.errors + unanswered
    # Answered heartbeats that missed the objective; errored or unanswered
    # ones are already counted as failed.
    repeat["slo_missed"] = client.answered["heartbeat"] - client.slo_met
    if client.errors or unanswered:
        repeat["failures"].append(
            f"serve-hb: {client.errors} errored and {unanswered} unanswered messages"
        )
    if server.get("errors", 1):
        fail(repeat, f"serve-hb: daemon reports {server.get('errors')} errors")
    # The daemon counts the stats request too.
    expected = sum(sent.values()) + 1
    if server.get("messages_handled") != expected:
        fail(repeat, f"serve-hb: daemon handled {server.get('messages_handled')} "
                     f"messages, client sent {expected}")
    repeat.update(
        tasks=client.tasks_reported,
        task_cpu_s=window["cpu_s"],
        ops=messages,
        op_cpu_s=window["cpu_s"],
        cpu_s=window["cpu_s"],
        wall_s=window["wall_s"],
        peak_rss_mb=window["peak_rss_mb"],
    )
    rtt_sent_mean = sum(client.rtt_sent) / max(1, len(client.rtt_sent))
    repeat["counters"] = {
        "heartbeats": sent["heartbeat"],
        "attempts": sum(client.attempts.values()),
        "rtt_due_ms": [quantile(client.rtt_due, 0.5) * 1e3,
                       quantile(client.rtt_due, 0.99) * 1e3],
        "rtt_samples": len(client.rtt_due),
        "lateness_ms": [quantile(client.lateness, 0.99) * 1e3,
                        max(client.lateness, default=0.0) * 1e3],
        "rtt_sent_mean_ms": rtt_sent_mean * 1e3,
    }
    if trace:
        repeat["spans"] = json.loads(spans_path.read_text())
        repeat["counters"]["slot_stats"] = repeat["spans"]["slot_stats"]
    return repeat
