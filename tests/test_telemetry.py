"""Tests for the fleet-scale telemetry layer and kernel phase profiler.

Covers the columnar ring buffers (:class:`_ColumnStore` growth, wrap and
drop accounting), :class:`TelemetrySink` sampling against a live run,
per-class rollup consistency, the ``metrics.snapshot`` trace events a
traced sink emits, NPZ/JSON export round-trips, the
profiler's inclusive/exclusive nesting semantics, the vectorized
``Histogram.observe_many``, and the tracer's bounded ``max_events``
ring mode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import run_scenario
from repro.observability import (
    EventType,
    Histogram,
    PhaseProfiler,
    ProfileRecord,
    TelemetryConfig,
    TelemetryRecord,
    TelemetrySink,
    Tracer,
    profile_table,
    read_telemetry_json,
    read_telemetry_npz,
    telemetry_records_equal,
    telemetry_report,
    write_telemetry_json,
    write_telemetry_npz,
)
from repro.observability.profiler import SAMPLE_STRIDE
from repro.observability.telemetry import CLASS_COLUMNS, COLUMNS, _ColumnStore
from repro.workloads import puma_job


def _small_jobs():
    return [
        puma_job("wordcount", input_gb=1.0, submit_time=0.0),
        puma_job("grep", input_gb=1.0, submit_time=30.0),
    ]


# --------------------------------------------------------------- TelemetryConfig
class TestTelemetryConfig:
    def test_coerce_off(self):
        assert TelemetryConfig.coerce(None) is None
        assert TelemetryConfig.coerce(False) is None

    def test_coerce_on_defaults(self):
        config = TelemetryConfig.coerce(True)
        assert config == TelemetryConfig()
        assert config.interval is None and config.profile

    def test_coerce_number_is_interval(self):
        assert TelemetryConfig.coerce(45).interval == 45.0
        assert TelemetryConfig.coerce(12.5).interval == 12.5

    def test_coerce_passthrough_and_errors(self):
        config = TelemetryConfig(interval=7.0, max_samples=16, profile=False)
        assert TelemetryConfig.coerce(config) is config
        with pytest.raises(TypeError):
            TelemetryConfig.coerce("yes")
        with pytest.raises(ValueError):
            TelemetryConfig(interval=0.0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_samples=0)


# ------------------------------------------------------------------ _ColumnStore
class TestColumnStore:
    def test_grows_by_doubling_then_wraps(self):
        store = _ColumnStore(rows=2, max_samples=8, initial_capacity=2)
        for value in range(12):
            slot = store.append_slot()
            store.column(slot)[:] = value
        assert store.total == 12
        assert store.dropped == 4  # 12 appended, capacity 8
        ordered = store.ordered()
        assert ordered.shape == (2, 8)
        # Oldest-first reassembly: samples 4..11 survive, in order.
        assert ordered[0].tolist() == [float(v) for v in range(4, 12)]

    def test_no_wrap_below_capacity(self):
        store = _ColumnStore(rows=1, max_samples=64, initial_capacity=4)
        for value in range(10):
            store.column(store.append_slot())[0] = value
        assert store.dropped == 0
        assert store.ordered()[0].tolist() == [float(v) for v in range(10)]

    def test_add_row_grows_metric_dimension(self):
        store = _ColumnStore(rows=1, max_samples=8, initial_capacity=4)
        store.column(store.append_slot())[:] = 1.0
        index = store.add_row()
        assert index == 1
        column = store.column(store.append_slot())
        column[1] = 5.0
        ordered = store.ordered()
        assert ordered.shape == (2, 2)
        assert ordered[1].tolist() == [0.0, 5.0]


# ------------------------------------------------------------------ live sampling
class TestTelemetrySinkLive:
    @pytest.fixture(scope="class")
    def run(self):
        return run_scenario(
            _small_jobs(),
            scheduler="e-ant",
            seed=7,
            trace=Tracer(),
            meter_interval=15.0,
            telemetry=TelemetryConfig(interval=15.0),
        )

    def test_columns_complete_and_aligned(self, run):
        record = run.telemetry.record()
        assert set(record.columns) == set(COLUMNS)
        assert set(record.class_columns) == set(CLASS_COLUMNS)
        n = record.samples
        assert n >= 2
        for name, series in record.columns.items():
            assert series.shape == (n,), name
        for name, rows in record.class_columns.items():
            assert rows.shape == (len(record.class_names), n), name
        times = record.columns["time"]
        assert np.all(np.diff(times) > 0)

    def test_class_rollups_sum_to_fleet_totals(self, run):
        record = run.telemetry.record()
        assert np.allclose(
            record.class_columns["in_service"].sum(axis=0),
            record.columns["active_machines"],
        )
        assert np.allclose(
            record.class_columns["power_watts"].sum(axis=0),
            record.columns["power_watts"],
        )
        assert np.allclose(
            record.class_columns["busy_map_slots"].sum(axis=0),
            record.columns["busy_map_slots"],
        )

    def test_heartbeat_histograms_populated(self, run):
        record = run.telemetry.record()
        latency = record.histograms["assignment_latency_seconds"]
        batch = record.histograms["heartbeat_batch_size"]
        assert latency["count"] > 0
        # Every heartbeat contributes a batch size, but latency is
        # stride-sampled (one timed heartbeat in every SAMPLE_STRIDE,
        # starting with the first).
        assert latency["count"] == math.ceil(batch["count"] / SAMPLE_STRIDE)
        assert latency["min"] >= 0.0

    def test_profiler_covers_kernel_phases(self, run):
        profile = run.profiler.record()
        names = {stat.name for stat in profile.phases}
        assert {"dispatch", "select", "energy", "telemetry"} <= names
        dispatch = profile.stat("dispatch")
        assert dispatch.calls == 1
        # Children (select/energy/telemetry run inside the dispatch loop)
        # are subtracted from dispatch's exclusive share.
        assert dispatch.exclusive_seconds <= dispatch.inclusive_seconds
        for stat in profile.phases:
            assert stat.inclusive_seconds >= 0.0
            assert stat.calls > 0

    def test_run_record_carries_sections(self, run):
        from repro.runner.record import RunRecord

        fields = {f.name for f in RunRecord.__dataclass_fields__.values()}
        assert {"telemetry", "profile"} <= fields


class TestRingWrapLive:
    def test_ring_mode_drops_oldest(self):
        result = run_scenario(
            _small_jobs(),
            scheduler="fair",
            seed=1,
            telemetry=TelemetryConfig(interval=5.0, max_samples=4),
        )
        sink = result.telemetry
        assert sink.dropped_samples > 0
        record = sink.record()
        assert record.samples == 4
        assert record.dropped_samples == sink.dropped_samples
        # The retained window is the *latest* four samples, still ordered.
        assert np.all(np.diff(record.columns["time"]) > 0)

    def test_profile_disabled_leaves_profiler_none(self):
        result = run_scenario(
            _small_jobs(),
            scheduler="fair",
            seed=1,
            telemetry=TelemetryConfig(interval=60.0, profile=False),
        )
        assert result.profiler is None
        assert result.telemetry is not None


# --------------------------------------------------------------------- exporters
class TestExportRoundTrips:
    @pytest.fixture(scope="class")
    def records(self):
        result = run_scenario(
            _small_jobs(),
            scheduler="e-ant",
            seed=5,
            telemetry=TelemetryConfig(interval=20.0),
        )
        return result.telemetry.record(), result.profiler.record()

    def test_npz_round_trip(self, records, tmp_path):
        telemetry, profile = records
        path = tmp_path / "export.npz"
        write_telemetry_npz(path, telemetry, profile)
        loaded_telemetry, loaded_profile = read_telemetry_npz(path)
        assert telemetry_records_equal(telemetry, loaded_telemetry)
        assert loaded_telemetry == telemetry
        assert loaded_profile == profile

    def test_json_round_trip(self, records, tmp_path):
        telemetry, profile = records
        path = tmp_path / "export.json"
        write_telemetry_json(path, telemetry, profile)
        loaded_telemetry, loaded_profile = read_telemetry_json(path)
        assert loaded_telemetry == telemetry
        assert loaded_profile == profile

    def test_partial_exports(self, records, tmp_path):
        telemetry, profile = records
        write_telemetry_npz(tmp_path / "t.npz", telemetry, None)
        loaded, none_profile = read_telemetry_npz(tmp_path / "t.npz")
        assert loaded == telemetry and none_profile is None
        write_telemetry_json(tmp_path / "p.json", None, profile)
        none_telemetry, loaded_profile = read_telemetry_json(tmp_path / "p.json")
        assert none_telemetry is None and loaded_profile == profile
        with pytest.raises(ValueError):
            write_telemetry_npz(tmp_path / "empty.npz", None, None)

    def test_rejects_non_exports(self, records, tmp_path):
        path = tmp_path / "not_an_export.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            read_telemetry_json(path)

    def test_nan_round_trips_as_null(self, tmp_path):
        record = TelemetryRecord(
            interval=1.0,
            columns={name: np.array([math.nan, 2.0]) for name in COLUMNS},
            class_names=("X",),
            class_columns={
                name: np.array([[1.0, math.nan]]) for name in CLASS_COLUMNS
            },
            histograms={},
        )
        path = tmp_path / "nan.json"
        write_telemetry_json(path, record, None)
        loaded, _ = read_telemetry_json(path)
        assert loaded == record

    def test_telemetry_report_renders(self, records):
        telemetry, profile = records
        text = telemetry_report(telemetry, profile)
        assert "samples every" in text
        assert "per-class power" in text
        assert "phase" in text


# ---------------------------------------------------------------------- profiler
class TestPhaseProfiler:
    def test_nested_inclusive_exclusive(self):
        profiler = PhaseProfiler()
        profiler.begin("outer")
        profiler.begin("inner")
        profiler.end()
        profiler.end()
        record = profiler.record()
        outer, inner = record.stat("outer"), record.stat("inner")
        assert outer.inclusive_seconds >= inner.inclusive_seconds
        assert inner.inclusive_seconds == inner.exclusive_seconds
        assert outer.exclusive_seconds == pytest.approx(
            outer.inclusive_seconds - inner.inclusive_seconds
        )

    def test_add_charges_leaf_against_enclosing_phase(self):
        profiler = PhaseProfiler()
        profiler.begin("outer")
        profiler.add("leaf", 0.125)
        profiler.add("leaf", 0.125)
        profiler.end()
        leaf = profiler.record().stat("leaf")
        assert leaf.inclusive_seconds == pytest.approx(0.25)
        assert leaf.calls == 2
        outer = profiler.record().stat("outer")
        assert outer.exclusive_seconds == pytest.approx(
            outer.inclusive_seconds - 0.25
        )

    def test_record_rejects_unclosed_sections(self):
        profiler = PhaseProfiler()
        profiler.begin("open")
        with pytest.raises(RuntimeError, match="unclosed"):
            profiler.record()

    def test_record_sorted_by_inclusive_time(self):
        profiler = PhaseProfiler()
        profiler.add("small", 0.1)
        profiler.add("big", 0.9)
        record = profiler.record()
        assert [s.name for s in record.phases] == ["big", "small"]
        assert record.total_seconds == pytest.approx(1.0)

    def test_json_round_trip_and_table(self):
        profiler = PhaseProfiler()
        profiler.add("a", 0.5)
        profiler.add("b", 0.25)
        record = profiler.record()
        rebuilt = ProfileRecord.from_json_dict(record.to_json_dict())
        assert rebuilt == record
        table = profile_table(record)
        assert "a" in table and "total" in table
        assert profile_table(ProfileRecord(phases=())) == "no profiled phases"


# -------------------------------------------------------- Histogram.observe_many
class TestObserveMany:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            max_size=200,
        )
    )
    def test_matches_scalar_observe(self, values):
        buckets = (0.001, 0.01, 0.1, 1.0, 10.0, 1000.0, float("inf"))
        scalar = Histogram(buckets=buckets)
        for value in values:
            scalar.observe(value)
        vectorized = Histogram(buckets=buckets)
        vectorized.observe_many(values)
        assert vectorized.count == scalar.count
        assert vectorized.counts == scalar.counts
        assert vectorized.min == scalar.min
        assert vectorized.max == scalar.max
        # Accumulation order differs, so the sum agrees only to tolerance.
        assert vectorized.sum == pytest.approx(scalar.sum, rel=1e-9, abs=1e-9)

    def test_empty_batch_is_a_no_op(self):
        histogram = Histogram()
        histogram.observe_many([])
        assert histogram.count == 0

    def test_mixes_with_scalar_observe(self):
        histogram = Histogram(buckets=(1.0, 2.0, float("inf")))
        histogram.observe(0.5)
        histogram.observe_many([1.5, 5.0])
        assert histogram.count == 3
        assert histogram.counts == [1, 2, 3]


# --------------------------------------------------------------- tracer ring mode
class TestTracerRingMode:
    def test_bounded_keeps_latest_and_counts_drops(self):
        tracer = Tracer(max_events=3)
        for index in range(5):
            tracer.emit(EventType.HEARTBEAT, float(index), index=index)
        assert len(tracer.events) == 3
        assert tracer.dropped == 2
        assert [event.time for event in tracer.events] == [2.0, 3.0, 4.0]

    def test_default_is_unbounded(self):
        tracer = Tracer()
        assert tracer.max_events is None
        for index in range(100):
            tracer.emit(EventType.HEARTBEAT, float(index))
        assert len(tracer.events) == 100
        assert tracer.dropped == 0

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            Tracer(max_events=0)

    def test_bounded_run_stays_identical(self):
        """A ring-bounded trace holds the tail of the unbounded trace."""
        jobs = [puma_job("wordcount", input_gb=1.0)]
        full = run_scenario(jobs, scheduler="fair", seed=2, trace=Tracer())
        bounded_tracer = Tracer(max_events=50)
        run_scenario(jobs, scheduler="fair", seed=2, trace=bounded_tracer)
        full_events = full.tracer.events
        bounded = list(bounded_tracer.events)
        assert len(bounded) == 50
        assert bounded_tracer.dropped == len(full_events) - 50
        tail = full_events[-50:]
        assert [e.type for e in bounded] == [e.type for e in tail]
        assert [e.time for e in bounded] == [e.time for e in tail]
