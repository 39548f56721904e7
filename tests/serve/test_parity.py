"""DES-vs-service parity: record a simulation, replay it through the engine.

The :class:`~repro.core.service.LocalSchedulerCore` tap records every
core-visible event of a DES run — registrations, job admissions,
heartbeats (with the directives the scheduler issued), task reports, and
control-interval ticks — as wire-shaped dicts.  Replaying that exact
message sequence through a fresh :class:`~repro.serve.ServeEngine` (and
again over a live :class:`~repro.serve.ServeDaemon` socket) must
reproduce the identical assignment stream: the engine hosts the same
core with the same seed, so any drift means the service path and the
simulation path have diverged.
"""

import asyncio
import json

import pytest

from repro.cluster import Cluster, Network, paper_fleet
from repro.hadoop import BlockPlacer, HadoopConfig, JobTracker, TaskTracker
from repro.runner.engine import make_scheduler
from repro.serve import ServeDaemon, ServeEngine
from repro.serve.protocol import encode
from repro.simulation import RandomStreams, Simulator
from repro.workloads import TERASORT, WORDCOUNT, JobSpec

SEED = 11
JOBS = [
    JobSpec(profile=TERASORT, input_mb=24 * 1024.0, num_reduces=8, submit_time=0.0),
    JobSpec(profile=WORDCOUNT, input_mb=12 * 1024.0, num_reduces=4, submit_time=30.0),
]


def record_des_tape(scheduler_name: str, seed: int = SEED):
    """Run a small DES scenario with the core tap attached; return the tape."""
    sim = Simulator()
    streams = RandomStreams(seed)
    cluster = Cluster(sim, list(paper_fleet()), Network())
    config = HadoopConfig()
    placer = BlockPlacer(cluster, config.replication, streams.stream("hdfs"))
    policy = make_scheduler(scheduler_name, streams)
    jobtracker = JobTracker(
        sim, cluster, config, policy, placer,
        skew_noise=None, rng=streams.stream("skew"),
    )
    tape = []
    # Attached before the trackers start, so registrations are on tape too.
    jobtracker.core.set_tap(tape.append)
    for machine in cluster:
        tracker = TaskTracker(
            sim, machine, config, rng=streams.stream(f"tt-{machine.machine_id}")
        )
        tracker.start(jobtracker)
    jobtracker.expect_jobs(len(JOBS))
    for spec in sorted(JOBS, key=lambda j: j.submit_time):
        if spec.submit_time > sim.now:
            sim.run(until=spec.submit_time)
        jobtracker.submit(spec)
    sim.run(until=200_000.0)
    assert jobtracker.is_shutdown, "DES scenario did not complete"
    return tape


def wire_stream(tape):
    """Yield ``(message, expected_directives)`` pairs from a recorded tape.

    Heartbeat records carry the DES's decision; everything else replays
    verbatim (reports and submissions get stamped with the sim time the
    DES handled them at, so the replay clock tracks the recording clock).
    """
    for record in tape:
        if record["type"] == "heartbeat":
            yield {"type": "heartbeat", **record["request"]}, record["directives"]
        elif record["type"] == "report":
            yield {**record, "now": record["finish_time"]}, None
        elif record["type"] == "submit":
            yield {**record, "now": record["job"].get("submit_time", 0.0)}, None
        else:
            yield record, None


@pytest.fixture(scope="module", params=["e-ant", "fair"])
def tape(request):
    recorded = record_des_tape(request.param)
    # The scenario must actually exercise the interesting paths: non-empty
    # assignments, completions, and at least one pheromone/control tick.
    kinds = {record["type"] for record in recorded}
    assert {"register", "submit", "heartbeat", "report"} <= kinds
    if request.param == "e-ant":
        # Only E-Ant starts the control loop (its pheromone cadence).
        assert "tick" in kinds
    assert any(r["type"] == "heartbeat" and r["directives"] for r in recorded)
    return request.param, recorded


def test_engine_replay_matches_des(tape):
    scheduler_name, recorded = tape
    engine = ServeEngine(scheduler=scheduler_name, seed=SEED, trust_wire_now=True)
    assignments = 0
    for index, (message, expected) in enumerate(wire_stream(recorded)):
        # The JSON round trip is what the socket would do to the message.
        reply = engine.handle(json.loads(json.dumps(message)))
        assert reply["type"] != "error", (
            f"message {index} ({message['type']}) rejected: {reply}"
        )
        if expected is not None:
            assert reply["type"] == "assignment"
            assert reply["directives"] == expected, (
                f"assignment divergence at message {index}: "
                f"engine {reply['directives']} vs DES {expected}"
            )
            assignments += len(expected)
    assert assignments > 0
    stats = engine.stats()
    assert stats["assignments"] == assignments
    assert stats["errors"] == 0
    assert stats["jobs_completed"] == len(JOBS)
    assert stats["control_intervals"] == sum(1 for r in recorded if r["type"] == "tick")


def test_daemon_replay_matches_des(tape):
    scheduler_name, recorded = tape
    divergences = asyncio.run(_replay_over_socket(scheduler_name, recorded))
    assert divergences == []


async def _replay_over_socket(scheduler_name, recorded):
    engine = ServeEngine(scheduler=scheduler_name, seed=SEED, trust_wire_now=True)
    daemon = ServeDaemon(engine, host="127.0.0.1", port=0)
    await daemon.start()
    divergences = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.bound_port)
        try:
            for index, (message, expected) in enumerate(wire_stream(recorded)):
                writer.write(encode(message))
                await writer.drain()
                reply = json.loads(await reader.readline())
                if reply["type"] == "error":
                    divergences.append((index, message["type"], reply["message"]))
                elif expected is not None and reply["directives"] != expected:
                    divergences.append((index, reply["directives"], expected))
                if divergences:
                    break
        finally:
            writer.close()
    finally:
        daemon.request_stop()
        stats = await daemon.wait_stopped()
    if not divergences:
        assert stats["jobs_completed"] == len(JOBS)
        assert stats["errors"] == 0
    return divergences
