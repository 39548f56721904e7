"""Unit tests for the event primitives."""

import pytest

from repro.simulation import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event().succeed(42)
        sim.run()
        assert event.ok
        assert event.value == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_failed_value_reraises(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        sim.run()
        with pytest.raises(ValueError):
            _ = event.value

    def test_unhandled_failure_surfaces(self, sim):
        sim.event().fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            sim.run()

    def test_callback_after_dispatch_runs_immediately(self, sim):
        event = sim.event().succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        sim.run()
        assert order == [1, 2]
