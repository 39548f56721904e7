"""Tests for the fleet-scale telemetry layer and the per-layer profile.

Covers the columnar ring buffers (:class:`_ColumnStore` growth, wrap and
drop accounting), :class:`TelemetrySink` sampling against a live run,
per-class rollup consistency, the ``metrics.snapshot`` trace events a
traced sink emits, JSON export round-trips, the cProfile fold of
:func:`profile_layers` (rows sum to the profile total, builtins charged
to their ``repro`` caller), and the vectorized ``Histogram.observe_many``.
"""

import cProfile
import math
import pstats
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DESKTOP, T420
from repro.experiments import run_scenario
from repro.faults import FaultEvent, FaultPlan
from repro.observability import (
    Histogram,
    PhaseStat,
    ProfileRecord,
    TelemetryConfig,
    TelemetryRecord,
    TelemetrySink,
    Tracer,
    profile_layers,
    profile_table,
    read_telemetry_json,
    telemetry_report,
    write_telemetry_json,
)
from repro.observability.profiler import OTHER, PROFILE_TITLE, fold_layers
from repro.observability.telemetry import (
    CLASS_COLUMNS,
    COLUMNS,
    SAMPLE_STRIDE,
    _ColumnStore,
)
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
        assert config.interval is None

    def test_coerce_number_is_interval(self):
        assert TelemetryConfig.coerce(45).interval == 45.0
        assert TelemetryConfig.coerce(12.5).interval == 12.5

    def test_coerce_passthrough_and_errors(self):
        config = TelemetryConfig(interval=7.0, max_samples=16)
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
    def profiled(self):
        return profile_layers(
            run_scenario,
            _small_jobs(),
            scheduler="e-ant",
            seed=7,
            trace=Tracer(),
            meter_interval=15.0,
            telemetry=TelemetryConfig(interval=15.0),
        )

    @pytest.fixture(scope="class")
    def run(self, profiled):
        return profiled[0]

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

    def test_profiler_covers_kernel_phases(self, profiled):
        _, profile = profiled
        for layer in ("simulation", "hadoop", "core", "observability"):
            stat = profile.stat(layer)
            assert stat.calls > 0, layer
            assert stat.self_seconds > 0.0, layer
        assert all(stat.self_seconds >= 0.0 for stat in profile.phases)

    def test_run_record_carries_sections(self, run):
        from repro.runner.record import RunRecord

        fields = {f.name for f in RunRecord.__dataclass_fields__.values()}
        # Host time is not a run outcome: only telemetry rides along.
        assert "telemetry" in fields and "profile" not in fields


@pytest.mark.parametrize("scheduler", ["fair", "e-ant"])
def test_joined_model_gets_its_own_class_row(scheduler):
    """A fault-plan ``join`` of a model absent from the starting fleet
    adds a class row mid-run, and the rollups still sum to the fleet."""
    jobs = [
        puma_job("wordcount", input_gb=2.0, submit_time=0.0),
        puma_job("grep", input_gb=2.0, submit_time=90.0),
    ]
    run = run_scenario(
        jobs,
        scheduler=scheduler,
        seed=7,
        fleet=[(T420, 3), (DESKTOP, 3)],
        faults=FaultPlan(events=(FaultEvent(time=100.0, kind="join", model="Atom"),)),
        telemetry=TelemetryConfig(interval=15.0),
    )
    record = run.telemetry.record()
    assert record.class_names == ("T420", "Desktop", "Atom")
    in_service = record.class_columns["in_service"]
    joined = record.columns["time"] >= 100.0
    assert joined.any() and not joined.all()
    assert np.array_equal(in_service[2], joined.astype(float))
    assert np.array_equal(in_service.sum(axis=0), record.columns["active_machines"])
    assert np.allclose(
        record.class_columns["power_watts"].sum(axis=0), record.columns["power_watts"]
    )


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


# --------------------------------------------------------------------- exporters
class TestExportRoundTrips:
    @pytest.fixture(scope="class")
    def records(self):
        result, profile = profile_layers(
            run_scenario,
            _small_jobs(),
            scheduler="e-ant",
            seed=5,
            telemetry=TelemetryConfig(interval=20.0),
        )
        return result.telemetry.record(), profile

    def test_json_round_trip(self, records, tmp_path):
        telemetry, profile = records
        path = tmp_path / "export.json"
        write_telemetry_json(path, telemetry, profile)
        loaded_telemetry, loaded_profile = read_telemetry_json(path)
        assert loaded_telemetry == telemetry
        assert loaded_profile == profile

    def test_partial_exports(self, records, tmp_path):
        telemetry, profile = records
        write_telemetry_json(tmp_path / "t.json", telemetry, None)
        loaded, none_profile = read_telemetry_json(tmp_path / "t.json")
        assert loaded == telemetry and none_profile is None
        write_telemetry_json(tmp_path / "p.json", None, profile)
        none_telemetry, loaded_profile = read_telemetry_json(tmp_path / "p.json")
        assert none_telemetry is None and loaded_profile == profile
        with pytest.raises(ValueError):
            write_telemetry_json(tmp_path / "empty.json", None, None)

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
        assert PROFILE_TITLE in text


# ---------------------------------------------------------------------- profiler
class TestLayerFold:
    def test_rows_sum_to_total_tt(self):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            run_scenario(_small_jobs(), scheduler="fair", seed=1)
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        record = fold_layers(stats)
        assert record.total_seconds == pytest.approx(stats.total_tt, rel=1e-9)
        for layer in ("simulation", "hadoop", "core"):
            assert record.stat(layer).calls > 0, layer

    def test_builtin_called_from_core_is_charged_to_core(self):
        import repro.core.service as core_module
        import repro.simulation.engine as simulation_module

        core = (core_module.__file__, 10, "select")
        simulation = (simulation_module.__file__, 20, "run")
        stdlib = ("heapq.py", 1, "helper")
        builtin = ("~", 0, "<built-in method builtins.len>")
        # pstats rows: (primitive calls, calls, self s, cumulative s, callers);
        # a caller edge is (calls, primitive calls, self s, cumulative s).
        stats = SimpleNamespace(stats={
            core: (3, 3, 1.0, 2.0, {}),
            simulation: (2, 2, 0.25, 3.0, {}),
            builtin: (9, 9, 0.75, 0.75, {
                core: (5, 5, 0.5, 0.5),
                stdlib: (4, 4, 0.25, 0.25),
            }),
            stdlib: (1, 1, 0.125, 0.375, {simulation: (1, 1, 0.125, 0.375)}),
        })
        record = fold_layers(stats)
        # Own time plus the builtin's self time on the core -> len edge.
        assert record.stat("core") == PhaseStat("core", 1.5, 3)
        # The stdlib helper is a direct callee of the simulation layer;
        # the builtin it calls in turn is not, so that edge is "other".
        assert record.stat("simulation") == PhaseStat("simulation", 0.375, 2)
        assert record.stat(OTHER) == PhaseStat(OTHER, 0.25, 0)
        assert [s.name for s in record.phases] == ["core", "simulation", OTHER]
        assert record.total_seconds == pytest.approx(2.125)

    def test_json_round_trip_and_table(self):
        record = ProfileRecord(
            phases=(PhaseStat("hadoop", 0.5, 40), PhaseStat("core", 0.25, 7))
        )
        rebuilt = ProfileRecord.from_json_dict(record.to_json_dict())
        assert rebuilt == record
        table = profile_table(record)
        assert table.splitlines()[0].split() == ["layer", "self", "s", "calls", "share"]
        assert "hadoop" in table and "total" in table
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
