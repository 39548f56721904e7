"""A small labelled-metrics registry.

:class:`MetricsRegistry` holds counters and histograms keyed by
``(name, sorted label items)`` — the shape of a Prometheus client, scaled
down to what an in-process simulation needs.  Instrumented components
increment metrics inline (assignments by scheduler and machine model,
heartbeat gaps, tasks completed); on a traced run the
:class:`~repro.observability.telemetry.TelemetrySink` embeds the registry
snapshot in every ``metrics.snapshot`` trace event.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram bucket upper bounds (seconds-ish scales).
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, float("inf"))


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Fixed-bucket distribution (cumulative counts, Prometheus-style).

    Observation is O(log buckets): each value ticks exactly one raw bucket
    (found by bisection) and the cumulative view is materialized on read.
    """

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError("histogram buckets must be sorted")
        self.buckets = tuple(buckets)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._raw = [0] * len(buckets)
        self._bucket_array: Optional["np.ndarray"] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self._raw):
            self._raw[index] += 1

    def observe_many(self, values: "Sequence[float]") -> None:
        """Vectorized batch observation: one ``searchsorted`` per call.

        Equivalent to calling :meth:`observe` on every element (the
        property suite pins the bucket counts, count, min, and max
        exactly; the sum only to float tolerance, since the accumulation
        order differs) — but O(n log buckets) in NumPy instead of n
        Python-level bisections.  This is how the telemetry sink drains
        its per-heartbeat buffers once per sampling interval.
        """
        import numpy as np

        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        self.count += int(array.size)
        self.sum += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        if self._bucket_array is None:
            self._bucket_array = np.asarray(self.buckets, dtype=np.float64)
        indices = np.searchsorted(self._bucket_array, array, side="left")
        raw = self._raw
        counts = np.bincount(indices[indices < len(raw)], minlength=len(raw))
        for index, extra in enumerate(counts.tolist()):
            if extra:
                raw[index] += extra

    @property
    def counts(self) -> List[int]:
        """Cumulative per-bucket counts (bucket i counts values <= bound i)."""
        out: List[int] = []
        running = 0
        for raw in self._raw:
            running += raw
            out.append(running)
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation within the containing bucket, the way
        Prometheus's ``histogram_quantile`` does it, with two refinements
        the exact ``min``/``max`` tracking makes possible: results are
        clamped to the observed range, and quantiles landing in the
        unbounded overflow bucket return the observed maximum instead of
        infinity.  Returns 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        lower = 0.0
        estimate = self.max
        for bound, raw in zip(self.buckets, self._raw):
            if raw:
                previous = running
                running += raw
                if running >= target:
                    if bound == float("inf"):
                        estimate = self.max
                    else:
                        fraction = (target - previous) / raw
                        estimate = lower + (bound - lower) * fraction
                    break
            if bound != float("inf"):
                lower = bound
        return min(max(estimate, self.min), self.max)

    def to_data(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(b): c for b, c in zip(self.buckets, self.counts)},
        }


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _key_str(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of labelled counters and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------- get/create
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._counters.setdefault(_key(name, labels), Counter())

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None, **labels: Any
    ) -> Histogram:
        key = _key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = Histogram(buckets=buckets or DEFAULT_BUCKETS)
        return self._histograms[key]

    # --------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Any]:
        """All metric values as a flat, JSON-serializable mapping."""
        return {
            "counters": {_key_str(k): c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                _key_str(k): h.to_data() for k, h in sorted(self._histograms.items())
            },
        }

    def counter_values(self, name: str) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """All label-sets of one counter family -> value."""
        return {
            labels: counter.value
            for (metric, labels), counter in self._counters.items()
            if metric == name
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"histograms={len(self._histograms)}>"
        )
