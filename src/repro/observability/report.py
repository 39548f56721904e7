"""Trace replay: reconstruct timelines and render reports offline.

``repro report out.jsonl`` calls :func:`report_from_trace`, which rebuilds
per-machine :class:`~repro.metrics.timeline.MachineSeries` from the
``metrics.snapshot`` events of a trace file — no live meter, simulator, or
cluster object required — and feeds them through the same sparkline
renderer the online ``--timeline`` view uses.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.timeline import MachineSeries, render_series_report, sparkline
from .exporters import flame_summary, trace_summary
from .profiler import PROFILE_TITLE, ProfileRecord, profile_table
from .telemetry import TelemetryRecord
from .tracer import EventType, TraceEvent

__all__ = [
    "fault_marks_from_trace",
    "machine_series_from_trace",
    "report_from_trace",
    "telemetry_report",
]

#: Single-character timeline markers per fault/recovery event kind.
_FAULT_MARKS = {
    "crash": "C",
    "recover": "R",
    "join": "J",
    "decommission": "D",
    "slowdown": "S",
    "flaky_heartbeats": "F",
}


def machine_series_from_trace(events: Sequence[TraceEvent]) -> Dict[int, MachineSeries]:
    """Per-machine utilization/power series from a trace's snapshots.

    Raises ``ValueError`` when the trace holds no ``metrics.snapshot``
    events (i.e. it was recorded without the periodic sampler).
    """
    times: Dict[int, List[float]] = {}
    utilization: Dict[int, List[float]] = {}
    power: Dict[int, List[float]] = {}
    identity: Dict[int, Dict[str, str]] = {}
    snapshots = 0
    for event in events:
        if event.type != EventType.METRICS_SNAPSHOT:
            continue
        snapshots += 1
        for sample in event.data.get("machines", ()):
            machine_id = int(sample["id"])
            identity.setdefault(
                machine_id,
                {"host": str(sample.get("host", machine_id)), "model": str(sample.get("model", "?"))},
            )
            times.setdefault(machine_id, []).append(event.time)
            utilization.setdefault(machine_id, []).append(float(sample["util"]))
            power.setdefault(machine_id, []).append(float(sample["power_w"]))
    if snapshots == 0:
        raise ValueError(
            "trace has no metrics.snapshot events; record it with tracing "
            "enabled (e.g. `repro run --trace-out out.jsonl`)"
        )
    return {
        machine_id: MachineSeries(
            machine_id=machine_id,
            hostname=identity[machine_id]["host"],
            model=identity[machine_id]["model"],
            times=tuple(times[machine_id]),
            utilization=tuple(utilization[machine_id]),
            power_watts=tuple(power[machine_id]),
        )
        for machine_id in sorted(times)
    }


def fault_marks_from_trace(
    events: Sequence[TraceEvent],
) -> List[Tuple[float, str, str]]:
    """(time, marker char, description) per fault/recovery event in a trace.

    Covers injected faults (``fault.injected``), tracker recoveries
    (``tracker.recovered``), and natural expiries (``tracker.expired``) —
    the cluster-dynamics events the sparkline timeline annotates.
    """
    marks: List[Tuple[float, str, str]] = []
    for event in events:
        if event.type == EventType.FAULT_INJECTED:
            kind = str(event.data.get("kind", "?"))
            detail = f"{kind} machine={event.data.get('machine_id')}"
            disrupted = event.data.get("tasks_disrupted")
            if disrupted:
                detail += f" disrupted={disrupted}"
            if event.data.get("factor") is not None:
                detail += f" factor={event.data['factor']:g}"
            marks.append((event.time, _FAULT_MARKS.get(kind, "?"), detail))
        elif event.type == EventType.TRACKER_RECOVERED:
            marks.append(
                (event.time, "R", f"tracker recovered machine={event.data.get('machine_id')}")
            )
        elif event.type == EventType.TRACKER_EXPIRED:
            marks.append(
                (event.time, "X", f"tracker expired machine={event.data.get('machine_id')}")
            )
    return marks


def _render_fault_timeline(
    marks: Sequence[Tuple[float, str, str]],
    t_lo: float,
    t_hi: float,
    width: int,
) -> str:
    """A marker row aligned under the sparkline columns, plus a legend."""
    row = [" "] * width
    span = t_hi - t_lo
    for time, char, _detail in marks:
        if span > 0:
            column = int((time - t_lo) / span * (width - 1))
        else:
            column = 0
        column = min(width - 1, max(0, column))
        # Later marks in the same column win; the legend keeps them all.
        row[column] = char
    lines = [f"{'faults':12s} {''.join(row)}"]
    for time, char, detail in marks:
        lines.append(f"  {char} t={time:8.1f}s  {detail}")
    return "\n".join(lines)


#: Fleet-level telemetry series rendered as sparklines, with a label and a
#: value formatter for the final sample.
_TELEMETRY_SERIES = (
    ("power_watts", "power kW", lambda v: f"{v / 1000:.1f}"),
    ("busy_map_slots", "busy maps", lambda v: f"{v:.0f}"),
    ("busy_reduce_slots", "busy reduces", lambda v: f"{v:.0f}"),
    ("pending_maps", "pending maps", lambda v: f"{v:.0f}"),
    ("pending_reduces", "pending reds", lambda v: f"{v:.0f}"),
    ("active_machines", "active nodes", lambda v: f"{v:.0f}"),
    ("energy_joules", "energy MJ", lambda v: f"{v / 1e6:.2f}"),
    ("tau_mean", "tau mean", lambda v: f"{v:.3f}"),
)


def _histogram_lines(name: str, payload: Dict[str, object], width: int = 30) -> List[str]:
    buckets: Dict[str, int] = payload.get("buckets", {})  # type: ignore[assignment]
    count = int(payload.get("count", 0) or 0)
    def _fmt(value: object) -> str:
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    lines = [
        f"{name}: n={count} mean={float(payload.get('sum', 0.0) or 0.0) / max(count, 1):.3g} "
        f"min={_fmt(payload.get('min'))} max={_fmt(payload.get('max'))}"
    ]
    previous = 0
    for bound, cumulative in buckets.items():
        in_bucket = int(cumulative) - previous
        previous = int(cumulative)
        if not in_bucket:
            continue
        bar = "#" * max(1, min(width, round(in_bucket / max(count, 1) * width)))
        lines.append(f"  <= {bound:>8s} {in_bucket:>8d} {bar}")
    return lines


def telemetry_report(
    telemetry: TelemetryRecord,
    profile: Optional[ProfileRecord] = None,
    width: int = 60,
) -> str:
    """Render a telemetry export: fleet sparklines, class rollups, phases.

    The offline counterpart of ``repro profile``'s live output: feed it a
    record loaded from the JSON export and it reconstructs the
    time-series view without re-simulating anything.
    """
    times = telemetry.columns["time"]
    sections: List[str] = []
    span = f"{times[0]:.0f}s..{times[-1]:.0f}s" if telemetry.samples else "empty"
    sections.append(
        f"telemetry: {telemetry.samples} samples every {telemetry.interval:g}s "
        f"({span}), {len(telemetry.class_names)} machine classes"
        + (f", {telemetry.dropped_samples} oldest samples dropped"
           if telemetry.dropped_samples else "")
    )
    if telemetry.samples:
        label_width = max(len(label) for _, label, _ in _TELEMETRY_SERIES)
        for column, label, fmt in _TELEMETRY_SERIES:
            values = telemetry.columns[column]
            finite = values[~np.isnan(values)]
            if finite.size == 0:
                continue
            line = sparkline([0.0 if math.isnan(v) else v for v in values.tolist()], width=width)
            sections.append(f"{label:<{label_width}s} {line} {fmt(float(values[-1]))}")
        if telemetry.class_names:
            sections.append("")
            sections.append("per-class power (W):")
            name_width = max(len(n) for n in telemetry.class_names)
            power = telemetry.class_columns["power_watts"]
            for index, name in enumerate(telemetry.class_names):
                series = power[index]
                sections.append(
                    f"  {name:<{name_width}s} {sparkline(series.tolist(), width=width)} "
                    f"{float(series[-1]):.0f}"
                )
    for name, payload in telemetry.histograms.items():
        sections.append("")
        sections.extend(_histogram_lines(name, payload))
    if profile is not None:
        sections.append("")
        sections.append(PROFILE_TITLE)
        sections.append(profile_table(profile))
    return "\n".join(sections)


def report_from_trace(events: Sequence[TraceEvent], width: int = 60) -> str:
    """Full offline report: summary, flame profile, per-machine sparklines.

    Traces recorded under a fault plan additionally get a fault/recovery
    marker row aligned with the sparkline columns and a per-event legend.
    """
    sections = [trace_summary(events), "", flame_summary(events), ""]
    try:
        series = machine_series_from_trace(events)
    except ValueError as error:
        sections.append(str(error))
    else:
        sections.append("per-machine utilization/power (replayed from trace):")
        sections.append(render_series_report(series, width=width, show_utilization=True))
        marks = fault_marks_from_trace(events)
        if marks:
            all_times = [t for s in series.values() for t in s.times]
            t_lo = min(all_times) if all_times else 0.0
            t_hi = max(all_times) if all_times else 0.0
            sections.append("")
            sections.append("fault/recovery timeline:")
            sections.append(_render_fault_timeline(marks, t_lo, t_hi, width))
    return "\n".join(sections)
