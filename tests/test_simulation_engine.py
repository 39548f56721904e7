"""Unit tests for the simulator core: clock, scheduling, run loop."""

import pytest

from repro.simulation import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(7.5)
        sim.run()
        assert sim.now == 7.5

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_run_until_advances_even_past_last_event(self, sim):
        sim.timeout(3.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_in_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_with_nothing_due_only_moves_the_clock(self, sim):
        fired = []
        sim.call_at(20.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)  # next event is later: a clock-only run
        assert sim.now == 5.0 and fired == [] and sim._dispatched == 0
        sim.run(until=5.0)  # until == now is allowed
        with pytest.raises(ValueError):
            sim.run(until=1.0)
        sim.run(until=30.0)
        assert fired == [20.0] and sim.now == 30.0
        Simulator().run(until=2.0)  # empty queue

    def test_traced_clock_only_run_still_emits_start_and_end(self, sim):
        from repro.observability.tracer import EventType, Tracer

        sim.tracer = Tracer()
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert [e.type for e in sim.tracer.events] == [EventType.SIM_START, EventType.SIM_END]
        assert sim.now == 4.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.call_at(5.0, lambda: order.append("late"))
        sim.call_at(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_same_time_insertion_order(self, sim):
        order = []
        sim.call_at(2.0, lambda: order.append("a"))
        sim.call_at(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_call_at_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(3.0, lambda: None)

    def test_timeout_at_fires_at_exactly_when(self, sim):
        # 0.1 + 0.2 != 0.3: an absolute time must not round-trip through
        # a relative delay.
        when = 0.1 + 0.2
        fired = []

        def proc():
            yield sim.timeout(0.1)
            value = yield sim.timeout_at(when, value="v")
            fired.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert fired == [(when, "v")]

    def test_timeout_at_now_is_allowed(self, sim):
        sim.timeout(2.0)
        sim.run()
        sim.timeout_at(2.0)
        sim.run()
        assert sim.now == 2.0

    def test_timeout_at_past_rejected(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(ValueError, match="in the past"):
            sim.timeout_at(4.999)


class TestRunLoop:
    def test_step_on_empty_heap_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_reports_next_time(self, sim):
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_determinism_across_instances(self):
        def trace(sim):
            log = []
            sim.call_at(1.0, lambda: log.append(sim.now))
            sim.call_at(1.0, lambda: sim.call_at(2.5, lambda: log.append(sim.now)))
            sim.run()
            return log

        assert trace(Simulator()) == trace(Simulator())
