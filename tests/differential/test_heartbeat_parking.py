"""Idle-heartbeat parking engages, and changes nothing but the heartbeat count.

The digest parity suite proves that parked runs produce the same records
as ``reference_mode()`` (which heartbeats every interval).  It cannot
tell a parked run from one where a guard silently disabled parking, so
this module checks that parking actually skips heartbeats, that every
heartbeat which did assign something happened at the same instant on the
same tracker with the same directives, that trackers expired while
still alive never park, and that expiring a parked tracker wakes it.
"""

import pytest

from repro.core.reference import reference_mode
from repro.core.service import LocalSchedulerCore
from repro.hadoop import TaskTracker
from repro.observability import EventType, Tracer
from repro.runner.engine import execute_spec

from ..conftest import build_stack, wordcount_spec
from .corpus import build_corpus

CORPUS = dict(build_corpus())
PARKING = [
    "eant-trio-seed0",
    "tarazu-trio-seed2",
    "fifo-idlegap-seed13",
    "fair-idlegap-crash-seed16",
    "eant-idlegap-flaky-seed17",
    "fifo-idlegap-join-seed20",
]


def _run_tapped(spec, monkeypatch, **kwargs):
    """Run ``spec`` with a core tap; return (result, heartbeat records)."""
    tape = []
    original = LocalSchedulerCore.__init__

    def init(self, *args, **kw):
        original(self, *args, **kw)
        self.set_tap(tape.append)

    with monkeypatch.context() as patch:
        patch.setattr(LocalSchedulerCore, "__init__", init)
        result = execute_spec(spec, **kwargs)
    return result, [r for r in tape if r["type"] == "heartbeat"]


def _decisions(heartbeats):
    return [
        (r["request"]["now"], r["request"]["machine_id"], r["directives"])
        for r in heartbeats
        if r["directives"]
    ]


@pytest.mark.parametrize("name", PARKING)
def test_parking_skips_heartbeats_with_identical_decisions(name, monkeypatch):
    spec = CORPUS[name]
    _, parked = _run_tapped(spec, monkeypatch)
    with reference_mode():
        _, reference = _run_tapped(spec, monkeypatch)
    assert 2 * len(parked) < len(reference), (
        f"{name}: {len(parked)} heartbeats reached the core against "
        f"{len(reference)} without parking; did a guard disable it?"
    )
    assert _decisions(parked) == _decisions(reference)


def test_default_policy_never_parks(monkeypatch):
    """LATE keeps ``may_assign() == True``: every heartbeat reaches it."""
    spec = CORPUS["late-duo-seed9"]
    _, parked = _run_tapped(spec, monkeypatch)
    with reference_mode():
        _, reference = _run_tapped(spec, monkeypatch)
    assert len(parked) == len(reference)


def test_traced_run_never_parks(monkeypatch):
    """A trace keeps one HEARTBEAT event per heartbeat."""
    spec = CORPUS["fifo-idlegap-seed13"]
    traced, heartbeats = _run_tapped(spec, monkeypatch, trace=Tracer())
    with reference_mode():
        _, reference = _run_tapped(spec, monkeypatch)
    assert len(heartbeats) == len(reference)
    assert len(traced.tracer.of_type(EventType.HEARTBEAT)) == len(reference)


def test_expired_live_tracker_never_parks_and_heartbeats_settle(monkeypatch):
    """A tracker expired while alive keeps heartbeating into ``[]``.

    In ``eant-idlegap-flaky-seed17`` machine 6 drops enough heartbeats to
    be expired, then heartbeats on for the rest of the run.  Only
    registered trackers may park, and at the end every tracker's
    ``last_heartbeat`` reads what heartbeating every interval leaves.
    """
    spec = CORPUS["eant-idlegap-flaky-seed17"]
    parks = []
    original = TaskTracker.park

    def park(self):
        machine_id = self.machine.machine_id
        parks.append((machine_id, self.jobtracker.trackers.get(machine_id) is self))
        original(self)

    with monkeypatch.context() as patch:
        patch.setattr(TaskTracker, "park", park)
        result = execute_spec(spec)
    with reference_mode():
        reference = execute_spec(spec)

    jobtracker = result.jobtracker
    assert jobtracker.expired_trackers == [6]
    assert 6 not in jobtracker.recovered_trackers
    assert parks and all(registered for _, registered in parks)
    assert jobtracker.last_heartbeat == reference.jobtracker.last_heartbeat
    assert not any(t.parked for t in jobtracker.trackers.values())


def _expire_parked_trackers_mid_gap():
    """A FIFO stack idle from its first job's end to t=200, with three of
    its four trackers expired by hand at t=100 while they are alive (and,
    with parking, parked).  Only tracker 3 can run the second job."""
    sim, _cluster, jobtracker, trackers = build_stack()
    jobtracker.expect_jobs(2)
    jobtracker.submit(wordcount_spec(num_maps=4))
    parked_at_expiry = []

    def expire():
        expired = trackers[:3]
        parked_at_expiry.append([tracker.parked for tracker in expired])
        for tracker in expired:
            jobtracker.expire_tracker(tracker.machine.machine_id)
        parked_at_expiry.append([tracker.parked for tracker in expired])

    sim.call_at(100.0, expire)
    sim.call_at(200.0, lambda: jobtracker.submit(wordcount_spec(submit_time=200.0)))
    sim.run(until=10_000.0)
    assert jobtracker.is_shutdown
    return jobtracker, parked_at_expiry


def test_expiring_parked_trackers_wakes_them_onto_their_phase():
    """Expired trackers heartbeat on into ``[]`` and must leave the wake
    queue: one left there could be woken for work, fail to pass it on, and
    strand tracker 3 parked with the second job pending."""
    parked, parked_at_expiry = _expire_parked_trackers_mid_gap()
    with reference_mode():
        reference, _ = _expire_parked_trackers_mid_gap()
    assert parked_at_expiry == [[True, True, True], [False, False, False]]
    assert parked.expired_trackers == reference.expired_trackers == [0, 1, 2]
    assert parked.core.heartbeats_handled < reference.core.heartbeats_handled
    assert parked.last_heartbeat == reference.last_heartbeat
    assert [job.finish_time for job in parked.completed_jobs] == [
        job.finish_time for job in reference.completed_jobs
    ]
