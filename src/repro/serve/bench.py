"""The daemon-in-a-subprocess load run behind ``repro serve --loadgen``.

The daemon runs in a **separate process** (spawned, not forked, so the
child has a clean interpreter) bound to a UNIX-domain socket, and the
load generator runs in the parent — otherwise client and server would
share one GIL and the measurement would cap well below what the daemon
can actually sustain.  The parent measures the offered/achieved heartbeat
rate and client-side round-trip quantiles; the child's own
decision-latency histogram comes back in the final stats message.

``repro serve --loadgen RATE`` prints the summary JSON;
``benchmarks/check_regression.py`` gates it against ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import tempfile
import time
from typing import Any, Dict, Optional

from ..workloads import TraceSpec
from .loadgen import LoadGenerator, fleet_tracker_infos
from .protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["run_serve_benchmark"]


def _daemon_main(path: str, scheduler: str, seed: int, nodes: Optional[int], time_scale: float) -> None:
    """Child-process entry: serve on a UNIX socket until told to shut down."""
    # Imports inside so the spawn start method ships only picklable args.
    from .daemon import ServeDaemon
    from .engine import ServeEngine

    engine = ServeEngine(
        scheduler=scheduler, seed=seed, nodes=nodes, trust_wire_now=False
    )
    daemon = ServeDaemon(engine, path=path, time_scale=time_scale)
    asyncio.run(daemon.run())


def _wait_for_socket(path: str, process: multiprocessing.Process, timeout: float = 30.0) -> None:
    """Block until the child's socket accepts, or fail fast if it died."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not process.is_alive():
            raise RuntimeError(
                f"serve daemon exited during startup (exit code {process.exitcode})"
            )
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                pass
            else:
                probe.close()
                return
            finally:
                probe.close()
        time.sleep(0.02)
    raise RuntimeError(f"serve daemon did not come up within {timeout} s")


async def _shutdown_daemon(path: str) -> Optional[Dict[str, Any]]:
    """Send the shutdown message; returns the daemon's final stats reply."""
    try:
        reader, writer = await asyncio.open_unix_connection(path, limit=MAX_LINE_BYTES)
    except OSError:
        return None
    writer.write(encode({"type": "shutdown"}))
    await writer.drain()
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=5.0)
        return decode(line) if line.strip() else None
    except (asyncio.TimeoutError, ValueError):
        return None
    finally:
        writer.close()


def run_serve_benchmark(
    *,
    rate: float,
    duration: float,
    scheduler: str,
    seed: int,
    connections: int,
    service_time: float,
    time_scale: float,
    nodes: Optional[int] = None,
    trace: Optional[TraceSpec] = None,
) -> Dict[str, Any]:
    """Run one daemon-in-a-subprocess load test; returns the summary dict.

    The shape matches ``BENCH_serve.json``'s ``measured`` section:
    offered/achieved heartbeat rates, client RTT quantiles, and the
    server's decision-latency quantiles.  ``trace`` replaces the
    generator's fixed submit schedule with the trace's arrivals (see
    :class:`~repro.serve.loadgen.LoadGenerator`).
    """
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        path = os.path.join(tmp, "serve.sock")
        process = ctx.Process(
            target=_daemon_main,
            args=(path, scheduler, seed, nodes, time_scale),
            daemon=True,
        )
        process.start()
        try:
            _wait_for_socket(path, process)
            generator = LoadGenerator(
                rate=rate,
                duration=duration,
                trackers=fleet_tracker_infos(nodes, seed),
                connections=connections,
                service_time=service_time,
                time_scale=time_scale,
                trace=trace,
            )

            async def _run() -> Any:
                async def open_connection():
                    return await asyncio.open_unix_connection(path, limit=MAX_LINE_BYTES)

                stats = await generator.run(open_connection)
                final = await _shutdown_daemon(path)
                return stats, final

            stats, final = asyncio.run(_run())
        finally:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    summary = stats.summary()
    server = stats.server_stats or final or {}
    return {
        "config": {
            "rate": rate,
            "duration": duration,
            "scheduler": scheduler,
            "seed": seed,
            "nodes": nodes,
            "connections": connections,
            "service_time": service_time,
            "time_scale": time_scale,
            "transport": "unix socket, daemon in a spawned subprocess",
        },
        "offered_heartbeats_per_sec": rate,
        "achieved_heartbeats_per_sec": summary["achieved_heartbeats_per_sec"],
        "heartbeats_sent": summary["heartbeats_sent"],
        "responses_received": summary["responses_received"],
        "assignments_received": summary["assignments_received"],
        "reports_sent": summary["reports_sent"],
        "jobs_submitted": summary["jobs_submitted"],
        "client_errors": summary["errors"],
        "rtt_ms": summary["rtt_ms"],
        "server": {
            "heartbeats": server.get("heartbeats"),
            "assignments": server.get("assignments"),
            "reports": server.get("reports"),
            "control_intervals": server.get("control_intervals"),
            "errors": server.get("errors"),
            "decision_latency_ms": server.get("decision_latency_ms"),
        },
    }
