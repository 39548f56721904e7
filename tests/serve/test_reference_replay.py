"""Differential replay: the serve path equals its naive reference.

A seeded, serve-hb-shaped session (16 trackers heartbeating every 3
sim-s, each assigned task reported 30 sim-s later, a submit and a control
tick every 300 sim-s) is driven through a :class:`~repro.serve.ServeEngine`
twice: once as is, and once inside
:func:`~repro.core.reference.reference_mode`, where every heartbeat
enters the policy's ``select_tasks`` even when no job has work.  The
session is closed-loop — reports follow the directives the engine hands
out — so identical replies imply an identical session, and the replies
must match byte for byte.
"""

import heapq
import itertools
import random

import pytest

from repro.core.reference import reference_mode
from repro.serve import ServeEngine
from repro.serve.loadgen import fleet_tracker_infos
from repro.serve.protocol import encode

SEED = 5
HEARTBEAT_S = 3.0
SERVICE_S = 30.0
SUBMIT_EVERY_S = 300.0
DURATION_S = 1500.0
APPLICATIONS = ("terasort", "wordcount", "grep")


def replay(scheduler: str):
    """Drive one session; return ``(engine, replies, select_calls)``."""
    engine = ServeEngine(scheduler=scheduler, seed=SEED)
    policy = engine.core.scheduler
    select_calls = [0]
    select_tasks = policy.select_tasks

    def counted(status):
        select_calls[0] += 1
        return select_tasks(status)

    policy.select_tasks = counted
    rng = random.Random(SEED)
    trackers = fleet_tracker_infos(None, SEED)
    running = {info.machine_id: [0, 0] for info in trackers}
    attempts = {}
    reports = []  # heap of (due, order, machine_id, slot, message)
    order = itertools.count()
    replies = []
    seq = 0

    def send(message, now):
        nonlocal seq
        seq += 1
        message = {**message, "now": now, "seq": seq}
        reply = engine.handle(message)
        replies.append(encode(reply))
        return reply

    for info in trackers:
        send({"type": "register", **info.to_wire()}, 0.0)
    beat = 0
    next_submit = 0.0
    while True:
        now = beat * HEARTBEAT_S / len(trackers)
        if now >= DURATION_S:
            break
        while next_submit <= now:
            send({"type": "tick"}, next_submit)
            send({"type": "submit", "application": rng.choice(APPLICATIONS),
                  "input_gb": rng.choice((1.0, 4.0, 8.0)), "num_reduces": 4},
                 next_submit)
            next_submit += SUBMIT_EVERY_S
        while reports and reports[0][0] <= now:
            due, _, machine_id, slot, message = heapq.heappop(reports)
            running[machine_id][slot] -= 1
            assert send(message, due)["type"] == "ok"
        info = trackers[beat % len(trackers)]
        maps, reduces = running[info.machine_id]
        reply = send({
            "type": "heartbeat", "machine_id": info.machine_id,
            "free_map_slots": info.map_slots - maps,
            "free_reduce_slots": info.reduce_slots - reduces,
            "running_maps": maps, "running_reduces": reduces,
        }, now)
        for directive in reply["directives"]:
            slot = 0 if directive["kind"] == "map" else 1
            running[info.machine_id][slot] += 1
            task_id = directive["task_id"]
            attempt = attempts.get(task_id, 0)
            attempts[task_id] = attempt + 1
            report = {
                "type": "report", "task_id": task_id,
                "attempt_id": f"attempt_{task_id}_{attempt}",
                "kind": directive["kind"], "machine_id": info.machine_id,
                "start_time": now, "finish_time": now + SERVICE_S,
                "avg_utilization": 0.5, "local": True,
                "samples": [[0.5, SERVICE_S]], "phases": {"cpu": SERVICE_S},
            }
            heapq.heappush(
                reports, (now + SERVICE_S, next(order), info.machine_id, slot, report)
            )
        beat += 1
    return engine, replies, select_calls[0]


@pytest.mark.parametrize("scheduler", ["e-ant", "fair", "fifo", "late"])
def test_replies_match_reference(scheduler):
    engine, replies, select_calls = replay(scheduler)
    with reference_mode():
        reference, reference_replies, reference_calls = replay(scheduler)

    assert replies == reference_replies
    assert engine.errors == reference.errors == 0
    heartbeats = engine.core.heartbeats_handled
    assert heartbeats == reference.core.heartbeats_handled
    assert engine.core.tasks_assigned == reference.core.tasks_assigned > 0
    assert engine.core.reports_handled == reference.core.reports_handled > 0
    assert engine.decision_latency.count == heartbeats
    # The reference enters the policy on every heartbeat; the short-circuit
    # skips the no-work ones, except under LATE, whose may_assign() is
    # always True.
    assert reference_calls == heartbeats
    if scheduler == "late":
        assert select_calls == heartbeats
    else:
        assert select_calls < heartbeats
