"""Trace export and offline inspection: JSONL files and text summaries.

A trace file is one JSON object per line, each with ``t`` (simulation
seconds) and ``type`` (an :class:`~repro.observability.tracer.EventType`
value) plus the event's payload fields.  The first line is normally the
``trace.header`` record carrying the run configuration, so a trace is
self-describing and reproducible.

Two reading modes: :func:`read_jsonl` materializes the whole trace (what
offline replay needs — the report renderer makes several passes), while
:func:`iter_jsonl` streams it one event at a time.  ``repro trace`` runs
on the streaming path through :class:`TraceStats`, a single-pass
accumulator that renders the same census/flamegraph text as
:func:`trace_summary`/:func:`flame_summary` without ever holding more
than one event in memory — multi-gigabyte fleet traces summarize in
constant space.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .tracer import EventType, TraceEvent, Tracer

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "TraceStats",
    "trace_summary",
    "flame_summary",
]


def _events_of(trace: Union[Tracer, Sequence[TraceEvent]]) -> Iterable[TraceEvent]:
    return trace.events if isinstance(trace, Tracer) else trace


def write_jsonl(trace: Union[Tracer, Sequence[TraceEvent]], path: Union[str, Path]) -> int:
    """Write a trace to ``path`` (one event per line); returns event count."""
    events = _events_of(trace)
    target = Path(path)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_line_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def _parse_line(path: Union[str, Path], line_number: int, line: str) -> Optional[TraceEvent]:
    """One JSONL line -> event; None for blanks; ValueError with location."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}:{line_number}: bad trace line: {error}") from None
    if not isinstance(record, dict) or "t" not in record or "type" not in record:
        raise ValueError(f"{path}:{line_number}: missing 't'/'type' field")
    return TraceEvent.from_line_dict(record)


def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
    return list(iter_jsonl(path))


def iter_jsonl(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream a JSONL trace one event at a time (constant memory).

    Raises ``ValueError`` with a ``path:line`` location on a truncated or
    corrupt line, exactly like :func:`read_jsonl` — but everything parsed
    before the bad line has already been yielded.  Each line is decoded
    on its own, so bytes that are not UTF-8 are named by their line too.
    """
    with Path(path).open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid UTF-8 (byte {error.start})"
                ) from None
            event = _parse_line(path, line_number, line)
            if event is not None:
                yield event


# --------------------------------------------------------------------- summary
#: Phase nesting used by the flame summary: kind -> execution phases.
_PHASE_TREE = {"map": ("io", "cpu"), "reduce": ("shuffle", "sort", "reduce")}


class TraceStats:
    """Single-pass accumulator behind the trace census and flame summary.

    Feed it events (in any order) with :meth:`add`, then render with
    :meth:`summary` / :meth:`flame`.  Both materializing helpers
    (:func:`trace_summary`, :func:`flame_summary`) and the streaming
    ``repro trace`` path share this accumulation, so their output is
    identical by construction.
    """

    def __init__(self) -> None:
        self.total = 0
        self.t_min = float("inf")
        self.t_max = float("-inf")
        self.counts: Dict[str, int] = {}
        self.header: Optional[TraceEvent] = None
        self.decisions = 0
        self.decisions_filled = 0
        self.phase_totals: Dict[str, Dict[str, float]] = {k: {} for k in _PHASE_TREE}

    def add(self, event: TraceEvent) -> None:
        self.total += 1
        if event.time < self.t_min:
            self.t_min = event.time
        if event.time > self.t_max:
            self.t_max = event.time
        type_name = str(event.type)
        self.counts[type_name] = self.counts.get(type_name, 0) + 1
        if self.header is None and event.type == EventType.HEADER:
            self.header = event
        elif event.type == EventType.DECISION:
            self.decisions += 1
            if event.data.get("chosen_job") is not None:
                self.decisions_filled += 1
        elif event.type == EventType.TASK_COMPLETED:
            kind = event.data.get("kind", "map")
            phases = event.data.get("phases") or {}
            bucket = self.phase_totals.setdefault(kind, {})
            for phase, seconds in phases.items():
                bucket[phase] = bucket.get(phase, 0.0) + float(seconds)

    def add_all(self, events: Iterable[TraceEvent]) -> "TraceStats":
        for event in events:
            self.add(event)
        return self

    # ------------------------------------------------------------- rendering
    def summary(self) -> str:
        """Compact roll-up: header, span, per-type counts, decision audit."""
        lines: List[str] = []
        if self.header is not None:
            config = " ".join(f"{k}={v}" for k, v in sorted(self.header.data.items()))
            lines.append(f"trace header: {config}")
        if self.total:
            lines.append(
                f"{self.total} events over {self.t_max - self.t_min:.1f} "
                "simulated seconds"
            )
        else:
            lines.append("0 events")
        width = max((len(t) for t in self.counts), default=0)
        for type_name in sorted(self.counts):
            lines.append(f"  {type_name:<{width}s} {self.counts[type_name]:>8d}")
        if self.decisions:
            lines.append(
                f"decision audit: {self.decisions_filled} dispatches, "
                f"{self.decisions - self.decisions_filled} idle offers"
            )
        return "\n".join(lines)

    def flame(self, width: int = 40) -> str:
        """Flamegraph-style text summary of where task time went.

        Aggregates the ``phases`` payload of every ``task.completed``
        event into a two-level tree (task kind -> phase) and renders
        inclusive seconds with proportional bars, like a collapsed
        flamegraph::

            all                 ######....  1234.5s 100.0%
              map               ####......   812.3s  65.8%
                io              #.........   101.2s   8.2%
        """
        totals = self.phase_totals
        grand_total = sum(sum(b.values()) for b in totals.values())
        if grand_total <= 0:
            return "no completed-task phase data in trace"

        def bar(fraction: float) -> str:
            filled = max(0, min(width, round(fraction * width)))
            return "#" * filled + "." * (width - filled)

        label_width = 4 + max(
            (len(p) for phases in totals.values() for p in phases), default=4
        )
        lines = [f"{'all':<{label_width}s} {bar(1.0)} {grand_total:10.1f}s 100.0%"]
        for kind in sorted(totals, key=lambda k: -sum(totals[k].values())):
            kind_total = sum(totals[kind].values())
            if kind_total <= 0:
                continue
            fraction = kind_total / grand_total
            lines.append(
                f"  {kind:<{label_width - 2}s} {bar(fraction)} {kind_total:10.1f}s "
                f"{fraction:6.1%}"
            )
            order = _PHASE_TREE.get(kind, tuple(sorted(totals[kind])))
            for phase in order:
                seconds = totals[kind].get(phase)
                if not seconds:
                    continue
                fraction = seconds / grand_total
                lines.append(
                    f"    {phase:<{label_width - 4}s} {bar(fraction)} "
                    f"{seconds:10.1f}s {fraction:6.1%}"
                )
        return "\n".join(lines)


def trace_summary(events: Sequence[TraceEvent]) -> str:
    """Compact roll-up of a trace: header, span, and per-type counts."""
    return TraceStats().add_all(events).summary()


def flame_summary(events: Sequence[TraceEvent], width: int = 40) -> str:
    """Flamegraph-style text summary of where task time went.

    See :meth:`TraceStats.flame` for the layout; this helper exists for
    in-memory event lists (``repro trace`` streams instead).
    """
    return TraceStats().add_all(events).flame(width)
