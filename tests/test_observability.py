"""Unit tests for the observability package: tracer, audit, metrics, exporters."""

import re

import pytest

from repro.observability import (
    NULL_TRACER,
    CandidateRow,
    DecisionRecord,
    EventType,
    Histogram,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    flame_summary,
    iter_jsonl,
    read_jsonl,
    trace_summary,
    write_jsonl,
)


class TestTracer:
    def test_emit_collects_typed_events(self):
        tracer = Tracer()
        tracer.emit(EventType.HEARTBEAT, 3.0, machine_id=4)
        tracer.emit(EventType.HEARTBEAT, 6.0, machine_id=4)
        tracer.emit(EventType.JOB_SUBMITTED, 0.0, job_id=1)
        assert len(tracer) == 3
        beats = tracer.of_type(EventType.HEARTBEAT)
        assert [e.time for e in beats] == [3.0, 6.0]
        assert beats[0].data == {"machine_id": 4}

    def test_header_lookup(self):
        tracer = Tracer()
        assert tracer.header() is None
        tracer.emit(EventType.HEADER, 0.0, scheduler="e-ant", seed=7)
        header = tracer.header()
        assert header is not None and header.data["seed"] == 7

    def test_null_tracer_is_disabled_and_collects_nothing(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(EventType.HEARTBEAT, 0.0, machine_id=1)
        # No buffer at all: an unguarded hot path that tried to append
        # would crash loudly instead of silently allocating.
        assert not hasattr(NULL_TRACER, "events")


class TestDecisionRecords:
    def _record(self):
        rows = (
            CandidateRow(job_id=1, tau=0.6, eta=1.2, deficit=2.0, weight=0.9, probability=0.75),
            CandidateRow(job_id=2, tau=0.4, eta=1.0, deficit=0.5, weight=0.3, probability=0.25),
        )
        return DecisionRecord(
            time=42.0,
            machine_id=3,
            kind="map",
            path="gated",
            chosen_job=1,
            task_id="j1-m0",
            candidates=rows,
        )

    def test_round_trip_preserves_time_and_rows(self):
        record = self._record()
        back = DecisionRecord.from_data(record.to_data(), time=record.time)
        assert back == record

    def test_probability_of_chosen(self):
        record = self._record()
        assert record.probability_of_chosen == pytest.approx(0.75)

    def test_tracer_parses_decisions_back(self):
        tracer = Tracer()
        record = self._record()
        tracer.emit_decision(record)
        (parsed,) = tracer.decisions()
        assert parsed == record
        assert parsed.time == 42.0


class TestMetricsRegistry:
    def test_counter_gauge_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("assignments_total", scheduler="e-ant", model="Atom")
        b = registry.counter("assignments_total", model="Atom", scheduler="e-ant")
        assert a is b  # label order must not matter
        a.inc()
        a.inc(2.0)
        assert b.value == 3.0
        assert registry.counter("assignments_total", model="T110") is not a

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram(buckets=(1.0, 5.0, float("inf")))
        for value in (0.5, 0.7, 3.0, 100.0):
            h.observe(value)
        assert h.count == 4
        assert h.counts == [2, 3, 4]
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx((0.5 + 0.7 + 3.0 + 100.0) / 4)

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", x="1").inc(5)
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        assert snap["counters"] == {"a{x=1}": 5.0, "b": 1.0}
        assert snap["histograms"]["h"]["count"] == 1


class TestExporters:
    def _events(self):
        return [
            TraceEvent(0.0, EventType.HEADER, {"scheduler": "e-ant", "seed": 1}),
            TraceEvent(1.0, EventType.TASK_COMPLETED, {"kind": "map", "phases": {"io": 2.0, "cpu": 6.0}}),
            TraceEvent(2.0, EventType.TASK_COMPLETED, {"kind": "reduce", "phases": {"shuffle": 1.0, "sort": 1.0, "reduce": 2.0}}),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = self._events()
        assert write_jsonl(events, path) == len(events)
        back = read_jsonl(path)
        assert [e.to_line_dict() for e in back] == [e.to_line_dict() for e in events]

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "type": "heartbeat"}\nnot json\n')
        with pytest.raises(ValueError, match="bad trace line"):
            read_jsonl(path)
        path.write_text('{"type": "heartbeat"}\n')
        with pytest.raises(ValueError, match="missing"):
            read_jsonl(path)

    def test_iter_jsonl_names_the_undecodable_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = b'{"t": 1.0, "type": "heartbeat"}\n'
        path.write_bytes(good * 300 + b'{"t": 2.0, "type": "\xffheartbeat"}\n' + good)
        events = iter_jsonl(path)
        for _ in range(300):
            next(events)  # every line before the bad one is yielded
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:301: not valid UTF-8"):
            next(events)

    def test_trace_summary_mentions_header_and_counts(self):
        text = trace_summary(self._events())
        assert "scheduler=e-ant" in text
        assert "task.completed" in text
        assert "3 events" in text

    def test_flame_summary_totals(self):
        text = flame_summary(self._events())
        # 8 s of map phases + 4 s of reduce phases = 12 s inclusive.
        assert "100.0%" in text
        assert "12.0s" in text
        lines = text.splitlines()
        assert lines[0].startswith("all")
        assert any(line.strip().startswith("map") for line in lines)
        assert any(line.strip().startswith("shuffle") for line in lines)

    def test_flame_summary_without_phase_data(self):
        assert "no completed-task phase data" in flame_summary([])
