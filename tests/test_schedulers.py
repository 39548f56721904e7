"""Baseline scheduler tests: FIFO ordering, Fair sharing, Tarazu balance."""

from repro.cluster import ATOM, DESKTOP, T420
from repro.hadoop import HadoopConfig, TaskKind
from repro.schedulers import FairScheduler, FifoScheduler, TarazuScheduler

from .conftest import build_stack, wordcount_spec


class TestFifo:
    def test_serves_jobs_in_submission_order(self):
        sim, _cluster, jt, _trackers = build_stack(scheduler=FifoScheduler())
        jt.expect_jobs(2)
        first = jt.submit(wordcount_spec(num_maps=30, num_reduces=0))
        second = jt.submit(wordcount_spec(num_maps=4, num_reduces=0))
        sim.run()
        # With FIFO the small late job cannot finish before the big job's
        # backlog is mostly drained; its maps start only once job 1 idles a
        # slot late in the run.
        first_start = min(a.start_time for t in first.maps for a in t.attempts)
        second_start = min(a.start_time for t in second.maps for a in t.attempts)
        assert first_start <= second_start


class TestFair:
    def test_splits_slots_between_concurrent_jobs(self):
        sim, _cluster, jt, _trackers = build_stack(scheduler=FairScheduler())
        jt.expect_jobs(2)
        a = jt.submit(wordcount_spec(num_maps=40, num_reduces=0))
        b = jt.submit(wordcount_spec(num_maps=40, num_reduces=0))
        # Let the cluster fill, then compare running maps.
        sim.run(until=60.0)
        assert a.running_maps > 0 and b.running_maps > 0
        assert abs(a.running_maps - b.running_maps) <= 2

    def test_small_job_not_starved_behind_big_one(self):
        sim, _cluster, jt, _trackers = build_stack(scheduler=FairScheduler())
        jt.expect_jobs(2)
        big = jt.submit(wordcount_spec(num_maps=60, num_reduces=0))
        small = jt.submit(wordcount_spec(num_maps=4, num_reduces=0, submit_time=10.0))
        sim.run()
        assert small.finish_time < big.finish_time


class TestTarazu:
    def test_map_quota_proportional_to_compute(self):
        fleet = [(DESKTOP, 2), (ATOM, 2)]
        sim, cluster, jt, _trackers = build_stack(
            scheduler=TarazuScheduler(), fleet=fleet
        )
        jt.expect_jobs(1)
        jt.submit(wordcount_spec(num_maps=80, num_reduces=0))
        sim.run()
        per_model = {}
        for report in jt.reports:
            model = cluster.machine(report.machine_id).spec.model
            per_model[model] = per_model.get(model, 0) + 1
        # Desktops (8 cores @ 1.0) must take far more maps than Atoms
        # (4 cores @ 0.25) despite equal slot counts.
        assert per_model["Desktop"] > 3 * per_model.get("Atom", 0)


class TestReduceGate:
    def test_no_reduce_before_slowstart(self):
        config = HadoopConfig(reduce_slowstart=1.0)
        sim, _cluster, jt, _trackers = build_stack(
            scheduler=FairScheduler(), config=config
        )
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=8, num_reduces=2))
        sim.run(until=10.0)
        assert job.running_reduces == 0
        sim.run()
        assert job.is_done
