"""The daemon-in-a-subprocess load run behind ``repro serve --loadgen``.

The daemon runs in a **separate process** — ``python -m repro serve
--socket PATH`` on a private UNIX-domain socket — and the load generator
runs in the parent; otherwise client and server would share one GIL and
the measurement would cap well below what the daemon can actually
sustain.  The child is a fresh interpreter started from the command line,
so the caller's ``__main__`` is never re-run: a script without an
``if __name__ == "__main__"`` guard, or code piped to ``python -``, can
drive it.  The parent measures the offered/achieved heartbeat rate and
client-side round-trip quantiles; the child's own decision-latency
histogram comes back in the final stats message.

``repro serve --loadgen RATE`` prints the summary JSON;
``benchmarks/check_regression.py`` gates it against ``BENCH_serve.json``.
"""

from __future__ import annotations

import asyncio
import os
import site
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional

from ..workloads import TraceSpec
from .loadgen import LoadGenerator, fleet_tracker_infos
from .protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["run_serve_benchmark"]


def _daemon_command(
    path: str, scheduler: str, seed: int, nodes: Optional[int], time_scale: float
) -> List[str]:
    """The ``repro serve`` command line of the benchmark's daemon."""
    command = [
        sys.executable, "-m", "repro", "serve", "--socket", path,
        "--scheduler", scheduler, "--seed", str(seed),
        "--time-scale", repr(float(time_scale)),
    ]
    if nodes is not None:
        command += ["--nodes", str(nodes)]
    return command


def _daemon_env() -> Dict[str, str]:
    """The caller's environment, with this ``repro``'s root first on the
    path unless it is a site directory.

    The caller may have imported ``repro`` through ``sys.path`` (a
    benchmark script inserting ``src/``), which a child interpreter would
    not inherit.  An installed package needs nothing: its site directory
    is already on the child's path, and putting it on ``PYTHONPATH``
    would rank it above the standard library.
    """
    root = Path(__file__).resolve().parents[2]
    site_dirs = {Path(d).resolve() for d in site.getsitepackages()}
    site_dirs.add(Path(site.getusersitepackages()).resolve())
    env = dict(os.environ)
    if root not in site_dirs:
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
    return env


def _startup_error(process: subprocess.Popen, log: IO[bytes]) -> str:
    """Why the daemon died before it served: exit code and stderr tail."""
    log.seek(0)
    tail = log.read().decode("utf-8", "replace").strip().splitlines()[-5:]
    detail = ("; stderr: " + " | ".join(tail)) if tail else ""
    return f"serve daemon exited during startup (exit code {process.returncode}){detail}"


def _wait_for_socket(
    path: str, process: subprocess.Popen, log: IO[bytes], timeout: float = 30.0
) -> None:
    """Block until the child's socket accepts, or fail fast if it died."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(_startup_error(process, log))
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
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp, \
            tempfile.TemporaryFile(dir=tmp) as log:
        path = os.path.join(tmp, "serve.sock")
        process = subprocess.Popen(
            _daemon_command(path, scheduler, seed, nodes, time_scale),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
            env=_daemon_env(),
        )
        try:
            _wait_for_socket(path, process, log)
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
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()

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
            "transport": "unix socket, daemon in a `repro serve` subprocess",
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
