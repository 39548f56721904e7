"""Unit tests for generator processes: waiting, joining, interrupts."""

import pytest

from repro.simulation import Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestProcessBasics:
    def test_return_value_becomes_event_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(body())
        sim.run()
        assert proc.value == "done"

    def test_yield_number_is_timeout(self, sim):
        def body():
            yield 2.5
            return sim.now

        proc = sim.process(body())
        sim.run()
        assert proc.value == 2.5

    def test_join_another_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return value + 1

        proc = sim.process(parent())
        sim.run()
        assert proc.value == 100

    def test_exception_fails_process(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise ValueError("inside")

        proc = sim.process(body())
        proc.defuse()
        sim.run()
        assert not proc.ok
        assert isinstance(proc.exception, ValueError)

    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise ValueError("child died")

        def parent():
            try:
                yield sim.process(child())
            except ValueError:
                return "caught"

        proc = sim.process(parent())
        sim.run()
        assert proc.value == "caught"

    def test_yield_garbage_fails_cleanly(self, sim):
        def body():
            yield "not an event"

        proc = sim.process(body())
        proc.defuse()
        sim.run()
        assert isinstance(proc.exception, TypeError)

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestInterrupt:
    def test_interrupt_wakes_with_cause(self, sim):
        def body():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause)

        proc = sim.process(body())
        sim.call_at(1.0, lambda: proc.interrupt("killed"))
        resumed_at = {}
        proc.add_callback(lambda e: resumed_at.setdefault("t", sim.now))
        sim.run()
        assert proc.value == ("interrupted", "killed")
        # The process resumed at the interrupt time; the orphaned timeout
        # still drains from the heap afterwards (standard DES semantics).
        assert resumed_at["t"] == 1.0

    def test_uncaught_interrupt_terminates_cleanly(self, sim):
        def body():
            yield sim.timeout(100.0)

        proc = sim.process(body())
        sim.call_at(1.0, lambda: proc.interrupt("bye"))
        sim.run()
        assert proc.triggered
        assert proc.value == "bye"

    def test_interrupt_finished_process_is_noop(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "ok"

        proc = sim.process(body())
        sim.run()
        proc.interrupt()  # must not raise
        sim.run()
        assert proc.value == "ok"

    def test_finally_blocks_run_on_interrupt(self, sim):
        cleaned = []

        def body():
            try:
                yield sim.timeout(50.0)
            finally:
                cleaned.append(sim.now)

        proc = sim.process(body())
        sim.call_at(2.0, lambda: proc.interrupt())
        sim.run()
        assert cleaned == [2.0]


class TestTermination:
    @pytest.mark.parametrize("ending", ["return", "raise", "interrupt"])
    def test_terminated_process_drops_its_generator(self, sim, ending):
        import gc

        def body():
            yield sim.timeout(5.0)
            if ending == "raise":
                raise KeyError("boom")

        proc = sim.process(body())
        if ending == "interrupt":
            sim.call_at(1.0, lambda: proc.interrupt())
        if ending == "raise":
            with pytest.raises(KeyError):
                sim.run()
        else:
            sim.run()
        assert proc.triggered
        assert proc._generator is None and proc._send is None and proc._resume_cb is None
        if ending == "raise":
            return  # the exception's traceback frames still reference proc
        # No process <-> bound-method cycle is left for the collector.
        gc.collect()
        gc.disable()
        try:
            del proc
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unjoined_exit_queues_no_event(self, sim):
        def body():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(body())
        sim.run(until=0.5)
        queued = sim._seq
        sim.run()
        # Only the timeout went through the queue after t=0.5: the exit
        # event would have called nothing, so the process is processed at once.
        assert sim._seq == queued
        assert proc.processed and proc.value == "done"
        woken = []
        proc.add_callback(lambda event: woken.append(event.value))
        assert woken == ["done"]  # a late joiner resumes at once

    def test_joined_exit_still_goes_through_the_queue(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 7

        proc = sim.process(child())
        joined = []
        proc.add_callback(lambda event: joined.append((sim.now, event.value)))
        sim.run(until=0.5)
        queued = sim._seq
        sim.run()
        assert sim._seq == queued + 1  # the exit event, dispatched to the joiner
        assert joined == [(1.0, 7)]

    def test_unjoined_failure_is_still_raised(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise KeyError("unwatched")

        sim.process(body())
        with pytest.raises(KeyError):
            sim.run()
