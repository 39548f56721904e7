"""Asyncio integration: the daemon under a live load generator.

A real (small) serve deployment on the loopback interface: the daemon
stamps wall-clock time at ``time_scale`` simulated seconds per second, so
a ~1.5 s run crosses several 300 s control intervals; the load generator
registers the paper fleet, keeps a job backlog submitted, heartbeats at a
modest rate, and ships synthetic completion reports for everything it is
assigned.
"""

import asyncio
import contextlib
import json
import socket

from repro.serve import LoadGenerator, ServeDaemon, ServeEngine, fleet_tracker_infos
from repro.serve.protocol import MAX_LINE_BYTES, encode
from repro.workloads import DiurnalProcess, render_trace

TIME_SCALE = 600.0  # one 300 s control interval every half wall second


async def _run_daemon_with_loadgen(duration=1.5, rate=400.0):
    engine = ServeEngine(scheduler="e-ant", seed=3, trust_wire_now=False)
    daemon = ServeDaemon(engine, host="127.0.0.1", port=0, time_scale=TIME_SCALE)
    await daemon.start()
    loadgen = LoadGenerator(
        rate=rate,
        duration=duration,
        trackers=fleet_tracker_infos(),
        connections=2,
        service_time=0.05,
        time_scale=TIME_SCALE,
    )
    port = daemon.bound_port

    async def connect():
        return await asyncio.open_connection("127.0.0.1", port)

    serve_task = asyncio.ensure_future(daemon.wait_stopped())
    try:
        stats = await loadgen.run(connect)
    finally:
        daemon.request_stop()
        final = await serve_task
    return stats, final


def test_daemon_serves_loadgen_for_control_intervals():
    stats, final = asyncio.run(_run_daemon_with_loadgen())

    # Nothing went wrong on either side of the socket.
    assert stats.errors == 0
    assert final["errors"] == 0

    # The offered load actually flowed: every heartbeat was answered, and
    # the scheduler had work to hand out.
    assert stats.heartbeats_sent > 0
    assert stats.responses_received == stats.heartbeats_sent
    assert stats.assignments_received > 0
    assert stats.reports_sent > 0

    # The daemon's wall clock crossed several control intervals.
    assert final["control_intervals"] >= 2

    # Server-side accounting agrees with the client's.
    assert final["heartbeats"] == stats.heartbeats_sent
    assert final["assignments"] == stats.assignments_received
    assert final["trackers"] == len(fleet_tracker_infos())
    assert final["decision_latency_ms"]["count"] == stats.heartbeats_sent

    summary = stats.summary()
    assert summary["rtt_ms"]["p50"] <= summary["rtt_ms"]["p99"] <= summary["rtt_ms"]["max"]
    assert summary["server_stats"] is not None


def test_daemon_replays_a_workload_trace():
    # Every arrival fits inside duration * TIME_SCALE simulated seconds,
    # so the replay should submit the whole trace before the run ends.
    trace = render_trace(
        DiurnalProcess(base_rate_per_s=0.05, amplitude=0.8, period_s=240.0),
        duration_s=240.0,
        name="serve-replay",
        seed=7,
        task_counts=(1, 2, 4),
    )

    async def scenario():
        engine = ServeEngine(scheduler="e-ant", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, host="127.0.0.1", port=0, time_scale=TIME_SCALE)
        await daemon.start()
        loadgen = LoadGenerator(
            rate=400.0,
            duration=1.0,
            trackers=fleet_tracker_infos(),
            connections=2,
            service_time=0.05,
            time_scale=TIME_SCALE,
            trace=trace,
        )
        port = daemon.bound_port

        async def connect():
            return await asyncio.open_connection("127.0.0.1", port)

        serve_task = asyncio.ensure_future(daemon.wait_stopped())
        try:
            stats = await loadgen.run(connect)
        finally:
            daemon.request_stop()
            final = await serve_task
        return stats, final

    stats, final = asyncio.run(scenario())
    assert stats.errors == 0
    assert final["errors"] == 0
    # The replay paced out exactly the trace's jobs — no interval seeding.
    assert stats.jobs_submitted == len(trace.jobs)
    # Heartbeats still flowed alongside the replayed submissions.
    assert stats.heartbeats_sent > 0
    assert stats.responses_received == stats.heartbeats_sent


def test_idle_daemon_fires_missed_intervals_on_the_next_message():
    # The clock moves only on messages: two deadlines pass while the
    # client is idle, nothing fires, and the next heartbeat fires both,
    # in order and at their exact deadlines.
    async def scenario():
        engine = ServeEngine(scheduler="e-ant", seed=3, trust_wire_now=False)
        tape = []
        engine.core.set_tap(tape.append)
        daemon = ServeDaemon(engine, host="127.0.0.1", port=0, time_scale=TIME_SCALE)
        await daemon.start()
        serve_task = asyncio.ensure_future(daemon.wait_stopped())
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.bound_port)

        async def ask(message):
            writer.write(encode(message))
            await writer.drain()
            return json.loads(await reader.readline())

        try:
            info = fleet_tracker_infos()[0]
            assert (await ask({"type": "register", **info.to_wire()}))["type"] == "ok"
            await asyncio.sleep(1.2)  # 720 simulated seconds
            idle = (await ask({"type": "stats"}))["control_intervals"]
            reply = await ask({
                "type": "heartbeat", "machine_id": info.machine_id,
                "free_map_slots": 0, "free_reduce_slots": 0,
                "running_maps": 0, "running_reduces": 0,
            })
            after = (await ask({"type": "stats"}))["control_intervals"]
        finally:
            writer.close()
            daemon.request_stop()
            await serve_task
        ticks = [record["now"] for record in tape if record["type"] == "tick"]
        return idle, reply, after, ticks

    idle, reply, after, ticks = asyncio.run(scenario())
    assert idle == 0
    assert reply["type"] == "assignment" and reply["now"] >= 600.0
    assert after >= 2
    assert ticks == [300.0 * index for index in range(1, after + 1)]


def test_shutdown_message_stops_daemon_with_stats():
    async def scenario():
        engine = ServeEngine(scheduler="fifo", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, host="127.0.0.1", port=0, time_scale=TIME_SCALE)
        await daemon.start()
        serve_task = asyncio.ensure_future(daemon.wait_stopped())
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.bound_port)
        writer.write(encode({"type": "shutdown", "seq": 1}))
        await writer.drain()
        reply = json.loads(await reader.readline())
        final = await asyncio.wait_for(serve_task, timeout=5.0)
        writer.close()
        return reply, final

    reply, final = asyncio.run(scenario())
    assert reply["type"] == "stats"
    assert reply["seq"] == 1
    assert final is not None and final["errors"] == 0


def test_unix_socket_roundtrip(tmp_path):
    path = str(tmp_path / "serve.sock")

    async def scenario():
        engine = ServeEngine(scheduler="fair", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, path=path, time_scale=TIME_SCALE)
        await daemon.start()
        serve_task = asyncio.ensure_future(daemon.wait_stopped())
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(encode({"type": "stats", "seq": 5}))
        await writer.drain()
        reply = json.loads(await reader.readline())
        writer.close()
        daemon.request_stop()
        await serve_task
        return reply

    reply = asyncio.run(scenario())
    assert reply["type"] == "stats"
    assert reply["seq"] == 5
    assert reply["scheduler"] == "fair"


# ---------------------------------------------------------------- framing
#
# These drive a UNIX-socket daemon from a plain blocking socket in a worker
# thread, so a test sees exactly the bytes on the wire, and a daemon that
# closes the connection with unread input (ECONNRESET) still delivers every
# reply it queued before closing.


def _with_unix_daemon(tmp_path, client):
    """Run ``client(path)`` in a thread against a live daemon; return its result."""
    path = str(tmp_path / "d.sock")

    async def scenario():
        engine = ServeEngine(scheduler="fifo", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, path=path, time_scale=TIME_SCALE)
        await daemon.start()
        stopped = asyncio.ensure_future(daemon.wait_stopped())
        try:
            return await asyncio.get_running_loop().run_in_executor(None, client, path)
        finally:
            daemon.request_stop()
            await asyncio.wait_for(stopped, timeout=5.0)

    return asyncio.run(scenario())


def _exchange(payload, *, replies=None, eof=False):
    """A client that sends ``payload`` and reads the reply lines.

    Reads ``replies`` lines, or until the daemon closes the connection when
    ``replies`` is None.  Returns ``(reply dicts, closed_by_daemon)``.
    """

    def client(path):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(path)
            with contextlib.suppress(BrokenPipeError, ConnectionResetError):
                sock.sendall(payload)
                if eof:
                    sock.shutdown(socket.SHUT_WR)
            data = b""
            closed = False
            while replies is None or data.count(b"\n") < replies:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    chunk = b""
                if not chunk:
                    closed = True
                    break
                data += chunk
            return [json.loads(line) for line in data.splitlines()], closed

    return client


def _lines(*messages):
    return b"".join(encode(m) for m in messages)


def test_pipelined_replies_come_back_in_order_with_seq(tmp_path):
    trackers = fleet_tracker_infos()
    messages = [{"type": "register", **t.to_wire()} for t in trackers]
    messages += [
        {"type": "heartbeat", "machine_id": t.machine_id, "free_map_slots": 0,
         "free_reduce_slots": 0, "running_maps": 0, "running_reduces": 0}
        for t in trackers * 3
    ]
    messages.append({"type": "stats"})
    for seq, message in enumerate(messages, start=1):
        message["seq"] = seq
    replies, closed = _with_unix_daemon(
        tmp_path, _exchange(_lines(*messages), replies=len(messages))
    )
    assert not closed
    assert [r["seq"] for r in replies] == list(range(1, len(messages) + 1))
    types = [r["type"] for r in replies]
    assert types == ["ok"] * len(trackers) + ["assignment"] * 3 * len(trackers) + ["stats"]


def test_connection_survives_unknown_type_and_non_json_line(tmp_path):
    payload = (
        _lines({"type": "nope", "seq": 1})
        + b"this is not json\n"
        + _lines({"type": "stats", "seq": 2})
    )
    replies, closed = _with_unix_daemon(tmp_path, _exchange(payload, replies=3))
    assert not closed
    assert replies[0] == {"type": "error", "message": "unknown message type 'nope'", "seq": 1}
    assert replies[1]["type"] == "error" and "seq" not in replies[1]
    assert replies[1]["message"].startswith("malformed JSON line")
    assert (replies[2]["type"], replies[2]["seq"]) == ("stats", 2)


def test_blank_lines_are_skipped(tmp_path):
    payload = b"\n   \n" + _lines({"type": "stats", "seq": 1}) + b"\r\n\t\n" + _lines(
        {"type": "stats", "seq": 2}
    )
    replies, closed = _with_unix_daemon(tmp_path, _exchange(payload, eof=True))
    assert closed
    assert [(r["type"], r["seq"]) for r in replies] == [("stats", 1), ("stats", 2)]


def test_over_limit_line_gets_one_error_then_close(tmp_path):
    payload = (
        _lines({"type": "stats", "seq": 1})
        + b"x" * (MAX_LINE_BYTES + 1)
        + b"\n"
        + _lines({"type": "stats", "seq": 2})
    )
    replies, closed = _with_unix_daemon(tmp_path, _exchange(payload))
    assert closed
    assert [r["type"] for r in replies] == ["stats", "error"]
    assert replies[1] == {"type": "error", "message": "line too long"}


def test_final_unterminated_line_before_eof_is_answered(tmp_path):
    payload = _lines({"type": "stats", "seq": 1}) + b'{"type":"stats","seq":2}'
    replies, closed = _with_unix_daemon(tmp_path, _exchange(payload, eof=True))
    assert closed
    assert [(r["type"], r["seq"]) for r in replies] == [("stats", 1), ("stats", 2)]


def test_deep_nesting_and_bad_utf8_get_error_replies_and_keep_the_connection(tmp_path):
    payload = (
        b"[" * 200_000 + b"\n"
        + b'{"type":"\xff\xfe"}\n'
        + _lines({"type": "stats", "seq": 7})
    )
    replies, closed = _with_unix_daemon(tmp_path, _exchange(payload, replies=3))
    assert not closed
    assert [r["type"] for r in replies] == ["error", "error", "stats"]
    assert all(r["message"].startswith("malformed JSON line") for r in replies[:2])
    assert replies[2]["seq"] == 7


# ---------------------------------------------------- flow control and stop


def test_flooding_non_reader_is_throttled_without_starving_others(tmp_path):
    # The flooder pipelines far more replies than the socket buffers and
    # the daemon's write high-water mark can hold, and never reads one.
    path = str(tmp_path / "d.sock")
    tracker = fleet_tracker_infos()[0]
    flood = 20_000
    heartbeat = {"type": "heartbeat", "machine_id": tracker.machine_id,
                 "free_map_slots": 0, "free_reduce_slots": 0,
                 "running_maps": 0, "running_reduces": 0}

    async def scenario():
        engine = ServeEngine(scheduler="fifo", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, path=path, time_scale=TIME_SCALE)
        await daemon.start()
        stopped = asyncio.ensure_future(daemon.wait_stopped())
        _flood_reader, flooder = await asyncio.open_unix_connection(path)
        flooder.write(_lines({"type": "register", **tracker.to_wire()}))
        flooder.write(_lines(*({**heartbeat, "seq": i} for i in range(flood))))
        await asyncio.sleep(0.5)
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(_lines({"type": "stats", "seq": 1}))
        reply = json.loads(await asyncio.wait_for(reader.readline(), timeout=2.0))
        daemon.request_stop()
        final = await asyncio.wait_for(stopped, timeout=5.0)
        writer.close()
        flooder.close()
        return reply, final

    reply, final = asyncio.run(scenario())
    assert (reply["type"], reply["seq"]) == ("stats", 1)
    # The daemon stopped reading the flooder once its replies backed up.
    assert reply["messages_handled"] < flood
    assert final["errors"] == 0


def test_stop_with_idle_clients_reports_no_loop_exceptions(tmp_path):
    path = str(tmp_path / "d.sock")
    reported = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        engine = ServeEngine(scheduler="fifo", seed=3, trust_wire_now=False)
        daemon = ServeDaemon(engine, path=path, time_scale=TIME_SCALE)
        await daemon.start()
        clients = [await asyncio.open_unix_connection(path) for _ in range(3)]
        await asyncio.sleep(0.05)
        daemon.request_stop()
        # No await after the stop: the loop tears down as soon as it returns,
        # as it does under ``asyncio.run(daemon.run())``.
        final = await daemon.wait_stopped()
        for _reader, writer in clients:
            writer.close()
        return final

    final = asyncio.run(scenario())
    assert final is not None
    assert reported == []
