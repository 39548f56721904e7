"""Structured tracing & telemetry for the E-Ant simulator.

Six pieces (see ``docs/observability.md`` for schemas, the
choosing-your-instrument matrix, and examples):

* :mod:`.tracer` — typed trace events with a zero-cost off switch
  (:data:`NULL_TRACER`); threaded through the simulation engine, both
  trackers, and every scheduler.
* :mod:`.audit` — the scheduler decision audit log: one record per E-Ant
  slot decision decomposing Eqs. 3-8 (pheromone, heuristic, fairness,
  final probability) over the full candidate set.
* :mod:`.metrics` — a labelled counter/histogram registry, snapshotted
  into the trace by the telemetry sink.
* :mod:`.telemetry` — the one periodic fleet sampler: per-interval
  aggregates in NumPy ring buffers with per-machine-class rollups,
  ``O(classes x samples)`` memory at any fleet size; on a traced run it
  also emits the ``metrics.snapshot`` events ``repro report`` replays.
* :mod:`.profiler` — host time of a run per ``repro`` layer: the stdlib
  ``cProfile`` folded by subpackage (:func:`profile_layers`); no hooks
  in the simulator.
* :mod:`.exporters` / :mod:`.report` — JSONL trace files (materialized or
  streamed), flamegraph-style text summaries, the JSON telemetry export,
  and offline replay into sparkline reports (``repro trace`` /
  ``repro report`` / ``repro profile``).
"""

from .audit import CandidateRow, DecisionRecord
from .exporters import (
    TraceStats,
    flame_summary,
    iter_jsonl,
    read_jsonl,
    trace_summary,
    write_jsonl,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .profiler import PhaseStat, ProfileRecord, profile_layers, profile_table
from .telemetry import (
    TelemetryConfig,
    TelemetryRecord,
    TelemetrySink,
    read_telemetry_json,
    telemetry_records_equal,
    write_telemetry_json,
)
from .tracer import NULL_TRACER, EventType, NullTracer, TraceEvent, Tracer


def __getattr__(name):
    # `.report` renders through repro.metrics.timeline, which sits above the
    # simulation/hadoop layers that import this package for NULL_TRACER —
    # loading it lazily keeps the low-level import graph acyclic.
    if name in ("machine_series_from_trace", "report_from_trace", "telemetry_report"):
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EventType",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CandidateRow",
    "DecisionRecord",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "PhaseStat",
    "ProfileRecord",
    "profile_layers",
    "profile_table",
    "TelemetryConfig",
    "TelemetrySink",
    "TelemetryRecord",
    "telemetry_records_equal",
    "write_telemetry_json",
    "read_telemetry_json",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "TraceStats",
    "trace_summary",
    "flame_summary",
    "machine_series_from_trace",
    "report_from_trace",
    "telemetry_report",
]
