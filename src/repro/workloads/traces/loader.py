"""Streaming trace file IO with compiler-style diagnostics.

:func:`load_trace` reads CSV or JSONL trace files row by row (constant
memory in the parser — rows accumulate only as validated
:class:`~repro.workloads.traces.schema.TraceJob` objects) and reports
every schema violation as ``file:line: error: message`` wrapped in a
:class:`~repro.workloads.traces.schema.TraceError`, which the CLI maps to
exit status 2.  :func:`write_trace` renders a
:class:`~repro.workloads.traces.schema.TraceSpec` back out in either
format; a write → load round trip reproduces the spec exactly (floats are
written with ``repr``, which round-trips doubles losslessly).

Column order is presentation: the CSV reader keys cells by header name,
so two files with the same rows and shuffled columns load to equal
``TraceSpec`` objects — and therefore equal digests.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from .schema import TraceError, TraceJob, TraceSpec

__all__ = ["load_trace", "write_trace", "TRACE_COLUMNS", "TRACE_SUFFIXES"]

#: Canonical CSV column order (writer side; the reader accepts any order).
TRACE_COLUMNS = (
    "job_id",
    "arrival_time",
    "task_count",
    "application",
    "input_mb",
    "num_reduces",
)

_REQUIRED = frozenset({"job_id", "arrival_time", "task_count"})
_KNOWN = frozenset(TRACE_COLUMNS)

#: File suffixes the loader dispatches on.
TRACE_SUFFIXES = (".csv", ".jsonl", ".ndjson")

_INT_FIELDS = ("job_id", "task_count", "num_reduces")
_FLOAT_FIELDS = ("arrival_time", "input_mb")


def _error(path: Union[str, Path], line: int, message: str) -> TraceError:
    return TraceError(f"{path}:{line}: error: {message}")


def _coerce_row(path: Union[str, Path], line: int, raw: Dict[str, Any]) -> TraceJob:
    """Type-check one raw row dict and build the frozen TraceJob."""
    unknown = sorted(set(raw) - _KNOWN)
    if unknown:
        raise _error(path, line, f"unknown field(s) {', '.join(unknown)}")
    missing = sorted(_REQUIRED - set(raw))
    if missing:
        raise _error(path, line, f"missing required field(s) {', '.join(missing)}")
    row: Dict[str, Any] = {}
    for key, value in raw.items():
        if value is None:
            continue
        if key in _INT_FIELDS:
            if isinstance(value, bool) or (
                not isinstance(value, int) and not isinstance(value, str)
            ):
                raise _error(path, line, f"{key} must be an integer, got {value!r}")
            try:
                row[key] = int(value)
            except ValueError:
                raise _error(
                    path, line, f"{key} must be an integer, got {value!r}"
                ) from None
        elif key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise _error(path, line, f"{key} must be a number, got {value!r}")
            try:
                row[key] = float(value)
            except ValueError:
                raise _error(
                    path, line, f"{key} must be a number, got {value!r}"
                ) from None
        else:  # application
            if not isinstance(value, str):
                raise _error(path, line, f"{key} must be a string, got {value!r}")
            row[key] = value
    try:
        return TraceJob(**row)
    except TraceError as exc:
        raise _error(path, line, str(exc)) from None


def _undecodable_line(path: Path) -> int:
    """1-based number of the first line of ``path`` that is not UTF-8."""
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 1


def _lines(path: Path, newline: Optional[str] = None) -> Iterator[str]:
    """Stream ``path`` as strict UTF-8 text lines.

    The decoder works in chunks, so a bad byte can surface several lines
    before the one holding it; the error path re-reads the file to name
    the exact line.
    """
    try:
        with path.open(encoding="utf-8", newline=newline) as handle:
            yield from handle
    except UnicodeDecodeError:
        raise _error(path, _undecodable_line(path), "not valid UTF-8") from None
    except OSError as exc:
        raise _error(path, 1, f"cannot read: {exc.strerror or exc}") from None


def _iter_csv(path: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    reader = csv.DictReader(_lines(path, newline=""))
    header = reader.fieldnames
    if header is None:
        return
    unknown = sorted(set(header) - _KNOWN)
    if unknown:
        raise _error(path, 1, f"unknown column(s) {', '.join(unknown)}")
    missing = sorted(_REQUIRED - set(header))
    if missing:
        raise _error(path, 1, f"missing required column(s) {', '.join(missing)}")
    for row in reader:
        if None in row:
            raise _error(path, reader.line_num, "row has more cells than columns")
        # Empty cells mean "use the schema default" for optional columns.
        raw = {
            key: value
            for key, value in row.items()
            if value is not None and value != ""
        }
        yield reader.line_num, raw


def _iter_jsonl(path: Path) -> Iterator[Tuple[int, Dict[str, Any]]]:
    for lineno, line in enumerate(_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _error(path, lineno, f"invalid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise _error(
                path, lineno, f"expected a JSON object, got {type(raw).__name__}"
            )
        yield lineno, raw


def load_trace(
    source: Union[str, Path], *, name: Optional[str] = None
) -> TraceSpec:
    """Load and validate a trace file (CSV or JSONL, by suffix).

    Raises :class:`TraceError` with a ``file:line: error:`` message on the
    first schema violation: bad types, unknown or missing fields, unsorted
    arrivals, duplicate job ids, or an empty file.  ``name`` defaults to
    the file stem and becomes the trace's display/identity name.
    """
    path = Path(source)
    suffix = path.suffix.lower()
    if suffix not in TRACE_SUFFIXES:
        raise TraceError(
            f"{path}:1: error: unsupported trace format {suffix or '(none)'!r}; "
            f"expected one of {', '.join(TRACE_SUFFIXES)}"
        )
    if not path.is_file():
        raise TraceError(f"{path}:1: error: no such file")
    rows = _iter_csv(path) if suffix == ".csv" else _iter_jsonl(path)

    jobs = []
    seen_ids: set = set()
    prev_arrival: Optional[float] = None
    for lineno, raw in rows:
        job = _coerce_row(path, lineno, raw)
        if job.job_id in seen_ids:
            raise _error(path, lineno, f"duplicate job_id {job.job_id}")
        seen_ids.add(job.job_id)
        if prev_arrival is not None and job.arrival_time < prev_arrival:
            raise _error(
                path,
                lineno,
                f"arrivals not sorted: {job.arrival_time} after {prev_arrival}",
            )
        prev_arrival = job.arrival_time
        jobs.append(job)
    if not jobs:
        raise _error(path, 1, "trace contains no jobs")
    return TraceSpec(name=name or path.stem, jobs=tuple(jobs))


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace(spec: TraceSpec, destination: Union[str, Path]) -> Path:
    """Write ``spec`` to ``destination`` (format chosen by suffix).

    The written file loads back to an equal :class:`TraceSpec` (same
    digest): CSV uses the canonical column order with ``repr`` floats,
    JSONL writes one sorted-key object per row.
    """
    path = Path(destination)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(TRACE_COLUMNS)
            for job in spec.jobs:
                row = job.to_json_dict()
                writer.writerow(_csv_cell(row[column]) for column in TRACE_COLUMNS)
    elif suffix in (".jsonl", ".ndjson"):
        with path.open("w", encoding="utf-8") as handle:
            for job in spec.jobs:
                handle.write(json.dumps(job.to_json_dict(), sort_keys=True))
                handle.write("\n")
    else:
        raise TraceError(
            f"{path}:1: error: unsupported trace format {suffix or '(none)'!r}; "
            f"expected one of {', '.join(TRACE_SUFFIXES)}"
        )
    return path
