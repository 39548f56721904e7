"""Hypothesis check of the simulator's dispatch order.

Callbacks issue random mixes of ``timeout``, ``timeout_at``, ``call_at``
and ``Event.succeed``.  A model keeps the ``(time, priority, insertion)``
key of every queued event; each dispatch must take the smallest key still
queued.  Timeouts and absolute-time events sort at normal priority, a
``succeed`` sorts urgent at the current time, and insertion order breaks
every remaining tie.  Keys are unique, so the model fixes one order; the
optimized kernel and :func:`~repro.core.reference.reference_mode` (the
``step()``-composed run loop) must both follow it.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import reference_mode
from repro.simulation import Simulator
from repro.simulation.engine import PRIORITY_NORMAL, PRIORITY_URGENT

MODES = {"optimized": nullcontext, "reference": reference_mode}

# Few distinct offsets, zero included, so ties at one timestamp are common.
_offsets = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 7.0])
_ops = st.one_of(
    st.tuples(st.just("timeout"), _offsets),
    st.tuples(st.just("timeout_at"), _offsets),
    st.tuples(st.just("call_at"), _offsets),
    st.tuples(st.just("succeed"), st.just(0.0)),
)
# script[i] lists the ops the i-th dispatched event issues.
_scripts = st.lists(st.lists(_ops, max_size=3), min_size=1, max_size=40)


class _Harness:
    """Drives one simulator from a script and checks it against the model."""

    def __init__(self, script):
        self.sim = Simulator()
        self.script = script
        self.inserted = 0
        #: key -> None for every event queued but not yet dispatched
        self.pending = {}
        #: keys in dispatch order
        self.log = []

    def schedule(self, ops):
        sim = self.sim
        for kind, offset in ops:
            self.inserted += 1
            now = sim.now
            if kind == "timeout":
                key = (now + offset, PRIORITY_NORMAL, self.inserted)
                sim.timeout(offset).add_callback(self._dispatched(key))
            elif kind == "timeout_at":
                key = (now + offset, PRIORITY_NORMAL, self.inserted)
                sim.timeout_at(now + offset).add_callback(self._dispatched(key))
            elif kind == "call_at":
                key = (now + offset, PRIORITY_NORMAL, self.inserted)
                callback = self._dispatched(key)
                sim.call_at(now + offset, lambda callback=callback: callback(None))
            else:
                key = (now, PRIORITY_URGENT, self.inserted)
                event = sim.event()
                event.add_callback(self._dispatched(key))
                event.succeed()
            self.pending[key] = None

    def _dispatched(self, key):
        def callback(_event):
            assert self.sim.now == key[0]
            assert key == min(self.pending), "dispatched out of order"
            del self.pending[key]
            self.log.append(key)
            if len(self.log) < len(self.script):
                self.schedule(self.script[len(self.log)])

        return callback


@pytest.mark.parametrize("mode", sorted(MODES))
@given(script=_scripts)
@settings(max_examples=60, deadline=None)
def test_dispatch_follows_time_priority_insertion(mode, script):
    with MODES[mode]():
        harness = _Harness(script)
        harness.schedule(script[0])
        harness.sim.run()
    assert not harness.pending
    assert harness.sim._dispatched == len(harness.log) == harness.inserted


@pytest.mark.parametrize("mode", sorted(MODES))
@given(script=_scripts, until=st.sampled_from([0.0, 0.5, 1.0, 3.0, 9.5]))
@settings(max_examples=60, deadline=None)
def test_run_until_leaves_later_events_queued(mode, script, until):
    with MODES[mode]():
        harness = _Harness(script)
        harness.schedule(script[0])
        harness.sim.run(until=until)
        assert harness.sim.now == until
        assert all(key[0] <= until for key in harness.log)
        assert all(key[0] > until for key in harness.pending)
        later = min(harness.pending)[0] if harness.pending else float("inf")
        assert harness.sim.peek() == later
        # Resuming drains the rest, still checked against the model.
        harness.sim.run()
    assert not harness.pending
    assert harness.sim._dispatched == harness.inserted


@given(batch=st.lists(st.tuples(_offsets, st.booleans()), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_drain_order_is_sorted(batch):
    """Push-then-drain dispatches in ``(time, priority, insertion)`` order."""
    sim = Simulator()
    drained = []
    for insertion, (when, absolute) in enumerate(batch):
        key = (when, insertion)
        if absolute:
            sim.call_at(when, lambda key=key: drained.append(key))
        else:
            sim.timeout(when).add_callback(lambda _e, key=key: drained.append(key))
    sim.run()
    assert drained == sorted(drained)
    assert len(drained) == len(batch)
