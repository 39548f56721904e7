"""TaskTracker failure and task re-execution tests."""

import pytest

from repro.hadoop import HadoopConfig

from .conftest import build_stack, wordcount_spec


def crash_stack(expiry=20.0):
    return build_stack(config=HadoopConfig(tracker_expiry=expiry))


class TestCrashRecovery:
    def test_job_completes_despite_crash(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=2))
        sim.call_at(10.0, trackers[0].crash)
        sim.run()
        assert job.is_done
        assert job.completed_maps == 24

    def test_crashed_tracker_is_expired(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        jt.submit(wordcount_spec(num_maps=24, num_reduces=1))
        sim.call_at(10.0, trackers[0].crash)
        sim.run()
        assert trackers[0].machine.machine_id in jt.expired_trackers
        assert trackers[0].machine.machine_id not in jt.trackers

    def test_tasks_rerun_on_other_machines(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        crashed_id = trackers[0].machine.machine_id
        sim.call_at(10.0, trackers[0].crash)
        sim.run()
        # Some task lost to the crash has a later attempt elsewhere.
        rerun = [
            t for t in job.maps
            if len(t.attempts) >= 2 and t.attempts[0].machine_id == crashed_id
        ]
        assert rerun
        for task in rerun:
            winner = [a for a in task.attempts if a.succeeded]
            assert winner and winner[0].machine_id != crashed_id

    def test_crashed_node_reports_nothing(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        crashed_id = trackers[0].machine.machine_id
        sim.call_at(10.0, trackers[0].crash)
        sim.run()
        # No successful report may carry the crashed machine's id after the
        # crash instant.
        for report in jt.reports:
            if report.machine_id == crashed_id:
                assert report.finish_time <= 10.0

    def test_machine_load_released_on_crash(self):
        sim, cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        machine = trackers[0].machine
        sim.call_at(10.0, trackers[0].crash)
        sim.run(until=12.0)
        # Interrupted attempts removed their CPU/IO load via finally blocks.
        assert machine.busy_cpu == pytest.approx(0.0)
        assert machine.io_active == 0

    def test_expire_tracker_requeues_running_tasks_directly(self):
        """Unit-level: expire_tracker itself marks the latest attempts
        killed and puts their tasks back in the pending queues."""
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        sim.run(until=10.0)
        machine_id = trackers[0].machine.machine_id
        running_here = [
            t for t in job.maps
            if t.state.value == "running" and t.attempts[-1].machine_id == machine_id
        ]
        assert running_here, "no work landed on the target machine by t=10"
        pending_before = job.pending_map_count

        jt.expire_tracker(machine_id)

        assert machine_id not in jt.trackers
        assert machine_id in jt.expired_trackers
        assert job.pending_map_count == pending_before + len(running_here)
        for task in running_here:
            attempt = task.attempts[-1]
            assert attempt.killed
            assert attempt.finish_time == 10.0
            assert task.state.value == "pending"

    def test_expire_tracker_unknown_machine_is_noop(self):
        sim, _cluster, jt, _trackers = crash_stack()
        jt.expire_tracker(99)
        assert 99 not in jt.expired_trackers

    def test_kill_attempt_reexecutes_task_elsewhere(self):
        """Unit-level: kill_attempt interrupts the running attempt; the
        JobTracker requeues the task and it succeeds on a later attempt."""
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        sim.run(until=10.0)
        victim_tracker = next(t for t in trackers if t.running_maps > 0)
        machine_id = victim_tracker.machine.machine_id
        victim_task = next(
            t for t in job.maps
            if t.state.value == "running" and t.attempts[-1].machine_id == machine_id
        )
        attempt = victim_task.attempts[-1]

        victim_tracker.kill_attempt(attempt)
        sim.run()

        assert job.is_done
        assert attempt.succeeded is False
        assert attempt.finish_time == 10.0
        assert attempt.killed
        winner = [a for a in victim_task.attempts if a.succeeded]
        assert winner and winner[0] is not attempt

    def test_kill_attempt_releases_slot(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        sim.run(until=10.0)
        victim_tracker = next(t for t in trackers if t.running_maps > 0)
        running_before = victim_tracker.running_maps
        victim_task = next(
            t for t in job.maps
            if t.state.value == "running"
            and t.attempts[-1].machine_id == victim_tracker.machine.machine_id
        )
        victim_tracker.kill_attempt(victim_task.attempts[-1])
        # The interrupt is delivered through the event loop; advance it.
        sim.run(until=10.1)
        assert victim_tracker.running_maps == running_before - 1

    def test_kill_attempt_on_finished_attempt_is_noop(self):
        sim, _cluster, jt, trackers = crash_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=4, num_reduces=0))
        sim.run()
        assert job.is_done
        done = job.maps[0].attempts[-1]
        tracker = next(
            t for t in trackers if t.machine.machine_id == done.machine_id
        )
        tracker.kill_attempt(done)  # no process registered; must not raise
        assert done.succeeded

    def test_expiry_disabled_means_job_hangs(self):
        sim, _cluster, jt, trackers = build_stack(
            config=HadoopConfig(tracker_expiry=0.0)
        )
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=4, num_reduces=0))
        # Crash immediately so tasks assigned at the first heartbeats die.
        sim.call_at(4.0, trackers[0].crash)
        sim.run(until=500.0)
        # Without expiry the lost tasks are never requeued; the job can
        # only finish if the crashed node happened to hold none of them.
        lost = [
            t for t in job.maps
            if t.attempts and t.attempts[-1].machine_id == trackers[0].machine.machine_id
            and t.state.value == "running"
        ]
        if lost:
            assert not job.is_done


class TestExpiryConfigValidation:
    """NaN fails every comparison, so a NaN expiry would pass a range
    check and never fire (``now - last >= nan`` is always false)."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_expiry_rejected(self, value):
        with pytest.raises(ValueError, match="tracker_expiry must be finite"):
            HadoopConfig(tracker_expiry=value)

    @pytest.mark.parametrize(
        "field", ["heartbeat_interval", "control_interval", "reduce_slowstart", "block_mb"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_every_float_field_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            HadoopConfig(**{field: value})

    def test_zero_still_disables_expiry(self):
        assert HadoopConfig(tracker_expiry=0.0).tracker_expiry == 0.0
