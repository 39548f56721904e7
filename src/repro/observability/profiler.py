"""Host time of a run per ``repro`` layer, from the stdlib ``cProfile``.

:func:`profile_layers` runs a callable under :class:`cProfile.Profile`
and folds the ``pstats`` table into one row per ``repro`` subpackage
(``simulation``, ``hadoop``, ``core``, ``schedulers``, ``cluster``,
``energy``, ``metrics``, ``observability``, ``faults``, ...).  Each row
holds the *self* seconds spent in that layer and the primitive call
count of its Python functions:

* a function inside ``repro`` is charged to its own subpackage;
* a function outside ``repro`` (a builtin, the stdlib, NumPy) is charged
  to the layer of each direct caller, using that call edge's self time —
  ``heapq.heappop`` called from the event loop counts as ``simulation``;
* whatever is left — time under callers outside ``repro`` — goes to the
  ``other`` row.

So the rows sum to the profile's total self time (``pstats`` ``total_tt``):
every profiled second is attributed to exactly one row.  Inclusive time
per layer is not reported because layers re-enter each other (the event
loop calls Hadoop callbacks that call the core that schedules simulator
events), so "time under a layer" has no single answer.

Nothing in the simulator is instrumented.  Profiling is pure
observation — a profiled run digests bit-identically to a bare one —
and costs nothing when it is not used.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    import pstats

__all__ = [
    "PROFILE_TITLE",
    "PhaseStat",
    "ProfileRecord",
    "ProfilerBusyError",
    "profile_layers",
    "profile_table",
]

#: Heading ``repro profile`` and ``repro report`` print above the table.
PROFILE_TITLE = "host-time profile by layer (cProfile self seconds):"

#: Row for time with no direct ``repro`` caller (interpreter, stdlib).
OTHER = "other"

#: ``.../repro/`` as this interpreter spells code filenames of the package.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(__file__)) + os.sep

T = TypeVar("T")


class ProfilerBusyError(ValueError):
    """Another profiler is already active (Python 3.12+ allows one)."""


@dataclass(frozen=True)
class PhaseStat:
    """Self time and primitive calls of one layer."""

    name: str
    self_seconds: float
    calls: int


@dataclass(frozen=True)
class ProfileRecord:
    """Portable host-time section of a telemetry export.

    Host timing, not simulation outcome: it travels next to the
    :class:`~repro.observability.telemetry.TelemetryRecord` in
    ``repro profile --out`` exports, never inside a run record.
    """

    phases: Tuple[PhaseStat, ...]

    @property
    def total_seconds(self) -> float:
        """Sum of the rows' self time — all profiled host time."""
        return sum(stat.self_seconds for stat in self.phases)

    def stat(self, name: str) -> PhaseStat:
        for stat in self.phases:
            if stat.name == name:
                return stat
        raise KeyError(f"no phase {name!r}; have {[s.name for s in self.phases]}")

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "phases": [
                {"name": s.name, "self_seconds": s.self_seconds, "calls": s.calls}
                for s in self.phases
            ]
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ProfileRecord":
        """Inverse of :meth:`to_json_dict`.

        Exports written by the earlier phase profiler carry
        ``exclusive_seconds`` instead of ``self_seconds``; it means the
        same thing and is read as such.
        """
        return cls(
            phases=tuple(
                PhaseStat(
                    name=str(p["name"]),
                    self_seconds=float(
                        p["self_seconds"] if "self_seconds" in p else p["exclusive_seconds"]
                    ),
                    calls=int(p["calls"]),
                )
                for p in data["phases"]
            )
        )


def _layer(filename: str) -> Optional[str]:
    """The ``repro`` subpackage (or top-level module) ``filename`` is in."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    head = filename[len(_PACKAGE_DIR):].split(os.sep, 1)[0]
    name = head[:-3] if head.endswith(".py") else head
    return "repro" if name in ("__init__", "__main__") else name


def fold_layers(stats: pstats.Stats) -> ProfileRecord:
    """Fold a ``pstats`` table into per-layer rows (see the module doc).

    Rows are ordered by descending self time, ties by name, so tables of
    the same workload line up across runs.
    """
    rows: Dict[str, List[float]] = {}  # layer -> [self seconds, calls]

    def charge(layer: str, seconds: float, calls: int = 0) -> None:
        row = rows.setdefault(layer, [0.0, 0])
        row[0] += seconds
        row[1] += calls

    for (filename, _line, _name), entry in stats.stats.items():  # type: ignore[attr-defined]
        primitive_calls, _calls, self_time, _cumulative, callers = entry
        layer = _layer(filename)
        if layer is not None:
            charge(layer, self_time, primitive_calls)
            continue
        for (caller_file, _cl, _cn), edge in callers.items():
            caller_layer = _layer(caller_file)
            if caller_layer is not None:
                # edge = (calls, primitive calls, self time, cumulative)
                charge(caller_layer, edge[2])
                self_time -= edge[2]
        charge(OTHER, self_time)
    stats_rows = [
        PhaseStat(name=name, self_seconds=seconds, calls=int(calls))
        for name, (seconds, calls) in rows.items()
    ]
    stats_rows.sort(key=lambda s: (-s.self_seconds, s.name))
    return ProfileRecord(phases=tuple(stats_rows))


def profile_layers(
    fn: Callable[..., T], *args: Any, **kwargs: Any
) -> Tuple[T, ProfileRecord]:
    """Run ``fn(*args, **kwargs)`` under ``cProfile``; fold its time by layer.

    Returns ``fn``'s result and the per-layer :class:`ProfileRecord`.
    Raises :class:`ProfilerBusyError` before ``fn`` runs when another
    profiler is already active.  cProfile inflates CPU time 2-2.6x on
    paper-scale runs, so read the rows as shares of the run, not as
    bare-run seconds.
    """
    # Imported here, not at module load: every run imports this package,
    # and only profiled runs need the profiler modules.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        profiler.enable()
    except ValueError as error:
        raise ProfilerBusyError(str(error)) from None
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, fold_layers(pstats.Stats(profiler))


def profile_table(record: ProfileRecord, width: int = 28) -> str:
    """Render a :class:`ProfileRecord` as an aligned text table.

    Self seconds, call counts and each row's share of the total, with a
    proportional bar — the ``repro profile`` output.
    """
    if not record.phases:
        return "no profiled phases"
    total = record.total_seconds
    name_width = max(5, max(len(s.name) for s in record.phases))
    lines = [f"{'layer':<{name_width}s} {'self s':>9s} {'calls':>10s} {'share':>7s}"]
    for stat in record.phases:
        share = stat.self_seconds / total if total > 0 else 0.0
        bar = "#" * max(0, min(width, round(share * width)))
        lines.append(
            f"{stat.name:<{name_width}s} {stat.self_seconds:9.3f} "
            f"{stat.calls:10d} {share:7.1%} {bar}"
        )
    lines.append(
        f"{'total':<{name_width}s} {total:9.3f} "
        f"{sum(s.calls for s in record.phases):10d} {'100.0%':>7s}"
    )
    return "\n".join(lines)
