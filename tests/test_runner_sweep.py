"""Sweep-runner behavior: bit-identity across execution modes, fallback."""

import pytest

import repro.runner.sweep as sweep_module
from repro.runner import (
    ResultCache,
    ScenarioSpec,
    SweepError,
    SweepRunner,
    resolve_specs,
)
from repro.workloads import puma_job


def micro_specs(n_seeds: int = 4) -> list:
    """A small grid that still exercises scheduling + energy accounting."""
    return [
        ScenarioSpec(
            jobs=(puma_job("grep", 0.5), puma_job("wordcount", 0.5, submit_time=30.0)),
            scheduler=scheduler,
            seed=seed,
            label=f"{scheduler}@{seed}",
        )
        for seed in range(n_seeds)
        for scheduler in ("fifo", "fair")
    ]


class TestBitIdentity:
    def test_serial_parallel_and_cache_agree(self, tmp_path):
        """The headline guarantee: all three resolution paths produce
        identical RunMetrics for the same spec."""
        specs = micro_specs(2)
        serial = [spec.run_record() for spec in specs]
        parallel = SweepRunner(workers=2, cache=ResultCache(tmp_path)).run(specs)
        restored = SweepRunner(workers=2, cache=ResultCache(tmp_path)).run(specs)
        for spec, a, b, c in zip(specs, serial, parallel, restored):
            assert a.spec_hash == spec.spec_hash()
            assert a.metrics == b.metrics == c.metrics
            assert a.phase_breakdown_by_job == b.phase_breakdown_by_job

    def test_results_are_index_aligned(self):
        specs = micro_specs(2)
        records = SweepRunner(workers=2).run(specs)
        assert [r.spec_hash for r in records] == [s.spec_hash() for s in specs]


class TestCachePath:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        specs = micro_specs(1)
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        runner.run(specs)
        assert runner.last_report.executed == len(specs)
        runner.run(specs)
        report = runner.last_report
        assert report.cache_hits == len(specs)
        assert report.executed == 0
        assert all(source == "cache" for source in report.sources.values())

    def test_no_cache_always_executes(self):
        specs = micro_specs(1)
        runner = SweepRunner(workers=1)
        runner.run(specs)
        runner.run(specs)
        assert runner.last_report.cache_hits == 0
        assert runner.last_report.executed == len(specs)


class TestSerialFallback:
    def test_broken_pool_degrades_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(sweep_module.multiprocessing, "Pool", broken_pool)
        specs = micro_specs(1)
        runner = SweepRunner(workers=4)
        records = runner.run(specs)
        assert len(records) == len(specs)
        report = runner.last_report
        assert report.fell_back_serial == len(specs)
        assert all(source == "serial" for source in report.sources.values())

    def test_single_worker_never_opens_a_pool(self, monkeypatch):
        def exploding_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers=1 must not fork")

        monkeypatch.setattr(sweep_module.multiprocessing, "Pool", exploding_pool)
        records = SweepRunner(workers=1).run(micro_specs(1))
        assert len(records) == 2


class TestRetries:
    def test_persistent_failure_raises_sweep_error(self, monkeypatch):
        attempts = []

        def always_fails(spec):
            attempts.append(spec.spec_hash())
            raise RuntimeError("boom")

        monkeypatch.setattr(sweep_module, "_execute_record_worker", always_fails)
        spec = micro_specs(1)[0]
        runner = SweepRunner(workers=1, retries=2)
        with pytest.raises(SweepError, match="boom"):
            runner.run([spec])
        assert len(attempts) == 3  # initial try + 2 retries

    def test_transient_failure_heals(self, monkeypatch):
        real_worker = sweep_module._execute_record_worker
        calls = []

        def flaky(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real_worker(spec)

        monkeypatch.setattr(sweep_module, "_execute_record_worker", flaky)
        runner = SweepRunner(workers=1, retries=1)
        records = runner.run(micro_specs(1)[:1])
        assert len(records) == 1
        assert runner.last_report.retried == 1

    def test_sweep_error_chains_worker_exception(self, monkeypatch):
        """Regression: the serial fallback used to swallow the worker's
        traceback, surfacing a bare SweepError with no clue where inside
        the scenario it blew up.  The original must ride along as
        ``__cause__`` (``raise ... from``) and stay reachable via the
        public ``cause`` attribute."""

        def always_fails(spec):
            raise ZeroDivisionError("deep inside the scenario")

        monkeypatch.setattr(sweep_module, "_execute_record_worker", always_fails)
        spec = micro_specs(1)[0]
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(workers=1, retries=1).run([spec])
        error = excinfo.value
        assert isinstance(error.__cause__, ZeroDivisionError)
        assert error.__cause__ is error.cause
        assert error.__cause__.__traceback__ is not None
        assert error.spec is spec
        assert "deep inside the scenario" in str(error)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)


class TestResolveSpecs:
    def test_none_runner_is_serial(self):
        specs = micro_specs(1)
        records = resolve_specs(specs, None)
        assert [r.spec_hash for r in records] == [s.spec_hash() for s in specs]

    def test_runner_path_matches_serial(self, tmp_path):
        specs = micro_specs(1)
        serial = resolve_specs(specs, None)
        swept = resolve_specs(specs, SweepRunner(workers=2, cache=ResultCache(tmp_path)))
        for a, b in zip(serial, swept):
            assert a.metrics == b.metrics


class TestProgressAndTracing:
    def test_progress_lines_and_trace_events(self, tmp_path):
        from repro.observability import EventType, Tracer

        lines = []
        tracer = Tracer()
        specs = micro_specs(1)
        SweepRunner(workers=1, tracer=tracer, progress=lines.append).run(specs)
        assert len(lines) == len(specs)
        kinds = [event.type for event in tracer.events]
        assert kinds.count(EventType.SWEEP_TASK) == len(specs)
        assert kinds.count(EventType.SWEEP_SUMMARY) == 1


class TestInterruption:
    """Ctrl-C mid-sweep: partial results reach the cache, then re-raise.

    The deterministic stand-in for a real SIGINT is a progress callback
    that raises ``KeyboardInterrupt`` after the first resolved spec — the
    same exception the signal handler would inject, at a reproducible
    point.
    """

    def test_interrupt_flushes_partials_and_reraises(self, tmp_path):
        specs = micro_specs(2)
        cache = ResultCache(tmp_path)
        resolved = []

        def interrupt_after_first(line):
            resolved.append(line)
            if len(resolved) == 1:
                raise KeyboardInterrupt

        runner = SweepRunner(workers=1, cache=cache, progress=interrupt_after_first)
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)

        report = runner.last_report
        assert report is not None
        assert len(report.sources) == 1
        assert report.wall_seconds > 0

        # The one resolved spec was flushed: a re-run resumes from cache.
        rerun = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        records = rerun.run(specs)
        assert len(records) == len(specs)
        assert rerun.last_report.cache_hits >= 1

    def test_sigterm_handler_restored_after_run(self):
        import signal

        sentinel = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            SweepRunner(workers=1).run(micro_specs(1))
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGTERM, sentinel)


class TestSpooledPoolPath:
    """run_spooled over a real pool: windowed submission, same results."""

    def test_pooled_spooled_matches_serial_spooled(self, tmp_path):
        from repro.runner import ResultSpool

        specs = micro_specs(3)
        serial = SweepRunner(workers=1).run_spooled(
            specs, ResultSpool(tmp_path / "serial.jsonl")
        )
        pooled_runner = SweepRunner(workers=2)
        pooled = pooled_runner.run_spooled(
            specs, ResultSpool(tmp_path / "pooled.jsonl")
        )
        assert pooled.digest() == serial.digest()
        assert pooled_runner.last_report.executed == len(specs)
        # Both spools hold a valid line per spec.
        assert len(ResultSpool(tmp_path / "pooled.jsonl").completed()) == len(specs)

    def test_duplicate_specs_collapse(self, tmp_path):
        from repro.runner import ResultSpool

        specs = micro_specs(1)
        runner = SweepRunner(workers=1)
        aggregate = runner.run_spooled(
            specs + specs, ResultSpool(tmp_path / "s.jsonl")
        )
        assert aggregate.records == len(specs)
        assert runner.last_report.total == len(specs)


class TestFailureKeepsProgress:
    """A ``SweepError`` keeps what resolved before it: each record is
    cached as it lands, and ``last_report`` describes the failed call."""

    @staticmethod
    def fail_second(monkeypatch, specs):
        real_worker = sweep_module._execute_record_worker
        doomed = specs[1].spec_hash()

        def worker(spec):
            if spec.spec_hash() == doomed:
                raise RuntimeError("boom")
            return real_worker(spec)

        monkeypatch.setattr(sweep_module, "_execute_record_worker", worker)

    def test_spec_resolved_before_failure_is_cached(self, tmp_path, monkeypatch):
        specs = micro_specs(1)
        self.fail_second(monkeypatch, specs)
        with pytest.raises(SweepError):
            SweepRunner(workers=1, retries=0, cache=ResultCache(tmp_path)).run(specs)
        monkeypatch.undo()

        rerun = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        rerun.run(specs)
        assert rerun.last_report.cache_hits == 1
        assert rerun.last_report.sources == {0: "cache", 1: "serial"}

    @pytest.mark.parametrize("spooled", [False, True], ids=["run", "run_spooled"])
    def test_last_report_describes_failed_call(self, tmp_path, monkeypatch, spooled):
        from repro.runner import ResultSpool

        runner = SweepRunner(workers=1, retries=0)
        runner.run(micro_specs(2)[2:3])  # an earlier, successful call
        specs = micro_specs(1)
        self.fail_second(monkeypatch, specs)
        with pytest.raises(SweepError):
            if spooled:
                runner.run_spooled(specs, ResultSpool(tmp_path / "s.jsonl"))
            else:
                runner.run(specs)

        report = runner.last_report
        assert report.total == len(specs)
        assert report.executed == 1
        assert report.sources == {0: "serial"}
        assert report.wall_seconds > 0
