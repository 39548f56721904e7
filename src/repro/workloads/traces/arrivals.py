"""Arrival-process generators: diurnal, bursty, flash-crowd, Poisson.

One implementation of every arrival curve the platform draws.  The
homogeneous-Poisson primitives here are the single source of truth for
the open-loop task streams of the motivation rig and for
:func:`repro.workloads.uniform_job_stream` (their historical draw
sequences are preserved bit-for-bit); the non-stationary processes render
deterministic :class:`~repro.workloads.traces.schema.TraceSpec` objects
from named RNG streams via :func:`render_trace`.

Non-homogeneous processes use Lewis–Shedler thinning: candidate arrivals
are drawn from a homogeneous process at the peak rate and accepted with
probability ``rate(t) / peak``, which keeps the sequence exactly
reproducible for a given generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from ...simulation.rng import RandomStreams
from .schema import BLOCK_MB, TraceError, TraceJob, TraceSpec

__all__ = [
    "poisson_process_times",
    "cumulative_exponential_times",
    "DiurnalProcess",
    "BurstyProcess",
    "FlashCrowdProcess",
    "ArrivalProcess",
    "PROCESS_KINDS",
    "make_process",
    "render_trace",
]

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------- primitives
def poisson_process_times(
    rate_per_s: float,
    duration_s: float,
    rng: np.random.Generator,
) -> List[float]:
    """Homogeneous Poisson arrival timestamps over ``[0, duration_s)``.

    One exponential per candidate, cumulative: the draw sequence the
    open-loop task streams have always used, so their arrival times stay
    bit-identical for any given generator state.
    """
    if rate_per_s <= 0:
        raise ValueError("arrival rate must be positive")
    times: List[float] = []
    t = float(rng.exponential(1.0 / rate_per_s))
    while t < duration_s:
        times.append(t)
        t += float(rng.exponential(1.0 / rate_per_s))
    return times


def cumulative_exponential_times(
    count: int,
    mean_interarrival_s: float,
    rng: np.random.Generator,
) -> List[float]:
    """``count`` cumulative exponential gaps (the uniform-stream schedule).

    One exponential draw per arrival, accumulated — exactly the sequence
    ``uniform_job_stream`` has always drawn for its submit times.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if mean_interarrival_s <= 0:
        raise ValueError("mean interarrival must be positive")
    times: List[float] = []
    t = 0.0
    for _ in range(count):
        t += float(rng.exponential(mean_interarrival_s))
        times.append(t)
    return times


def _thinned_times(
    rate_fn,
    peak_rate_per_s: float,
    duration_s: float,
    rng: np.random.Generator,
) -> List[float]:
    """Lewis–Shedler thinning against a ``peak_rate_per_s`` envelope."""
    times: List[float] = []
    t = float(rng.exponential(1.0 / peak_rate_per_s))
    while t < duration_s:
        if float(rng.random()) * peak_rate_per_s <= rate_fn(t):
            times.append(t)
        t += float(rng.exponential(1.0 / peak_rate_per_s))
    return times


# -------------------------------------------------------------- processes
@dataclass(frozen=True)
class DiurnalProcess:
    """Sinusoidal day/night arrival curve.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*t/period + phase))`` —
    the classic diurnal load shape: a trough, a rise, a peak, a fall per
    period.

    Parameters
    ----------
    base_rate_per_s:
        Mean arrival rate (jobs/second) averaged over one period.
    amplitude:
        Relative swing in ``[0, 1)``; 0.8 means peak = 1.8x the mean and
        trough = 0.2x.
    period_s:
        Length of one day (simulated seconds).
    phase:
        Phase offset in radians (0 starts at the mean, rising).
    """

    base_rate_per_s: float
    amplitude: float = 0.8
    period_s: float = 86_400.0
    phase: float = 0.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.base_rate_per_s <= 0:
            raise TraceError("base_rate_per_s must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise TraceError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if self.period_s <= 0:
            raise TraceError("period_s must be positive")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate (jobs/second) at time ``t``."""
        return self.base_rate_per_s * (
            1.0 + self.amplitude * math.sin(TWO_PI * t / self.period_s + self.phase)
        )

    @property
    def peak_rate_per_s(self) -> float:
        return self.base_rate_per_s * (1.0 + self.amplitude)

    def times(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        if duration_s <= 0:
            raise TraceError("duration_s must be positive")
        return _thinned_times(self.rate, self.peak_rate_per_s, duration_s, rng)


@dataclass(frozen=True)
class BurstyProcess:
    """Two-state Markov-modulated Poisson process (quiet / burst).

    The process alternates exponential dwell times between a quiet state
    at ``base_rate_per_s`` and a burst state at ``burst_multiplier`` times
    that rate — the heavy-tailed clumping real job streams show that a
    plain Poisson process cannot.
    """

    base_rate_per_s: float
    burst_multiplier: float = 8.0
    mean_quiet_s: float = 1_800.0
    mean_burst_s: float = 300.0

    kind = "bursty"

    def __post_init__(self) -> None:
        if self.base_rate_per_s <= 0:
            raise TraceError("base_rate_per_s must be positive")
        if self.burst_multiplier <= 1.0:
            raise TraceError(
                f"burst_multiplier must be > 1, got {self.burst_multiplier}"
            )
        if self.mean_quiet_s <= 0 or self.mean_burst_s <= 0:
            raise TraceError("dwell time means must be positive")

    @property
    def peak_rate_per_s(self) -> float:
        return self.base_rate_per_s * self.burst_multiplier

    def times(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        if duration_s <= 0:
            raise TraceError("duration_s must be positive")
        times: List[float] = []
        t = 0.0
        bursting = False
        while t < duration_s:
            rate = self.peak_rate_per_s if bursting else self.base_rate_per_s
            dwell = float(
                rng.exponential(self.mean_burst_s if bursting else self.mean_quiet_s)
            )
            end = min(t + dwell, duration_s)
            s = t + float(rng.exponential(1.0 / rate))
            while s < end:
                times.append(s)
                s += float(rng.exponential(1.0 / rate))
            t += dwell
            bursting = not bursting
        return times


@dataclass(frozen=True)
class FlashCrowdProcess:
    """Steady background load with one sudden spike window.

    Models a flash crowd ("millions of users hit the front page"): the
    rate jumps to ``spike_multiplier`` times the base for
    ``spike_duration_s`` starting at ``spike_start_s``.
    """

    base_rate_per_s: float
    spike_multiplier: float = 20.0
    spike_start_s: float = 600.0
    spike_duration_s: float = 300.0

    kind = "flash-crowd"

    def __post_init__(self) -> None:
        if self.base_rate_per_s <= 0:
            raise TraceError("base_rate_per_s must be positive")
        if self.spike_multiplier <= 1.0:
            raise TraceError(
                f"spike_multiplier must be > 1, got {self.spike_multiplier}"
            )
        if self.spike_start_s < 0 or self.spike_duration_s <= 0:
            raise TraceError("spike window must be non-negative start, positive length")

    def rate(self, t: float) -> float:
        if self.spike_start_s <= t < self.spike_start_s + self.spike_duration_s:
            return self.base_rate_per_s * self.spike_multiplier
        return self.base_rate_per_s

    @property
    def peak_rate_per_s(self) -> float:
        return self.base_rate_per_s * self.spike_multiplier

    def times(self, duration_s: float, rng: np.random.Generator) -> List[float]:
        if duration_s <= 0:
            raise TraceError("duration_s must be positive")
        return _thinned_times(self.rate, self.peak_rate_per_s, duration_s, rng)


ArrivalProcess = Union[DiurnalProcess, BurstyProcess, FlashCrowdProcess]

#: CLI-facing registry of process kinds.
PROCESS_KINDS: Dict[str, type] = {
    "diurnal": DiurnalProcess,
    "bursty": BurstyProcess,
    "flash-crowd": FlashCrowdProcess,
}


def make_process(kind: str, rate_per_s: float, **options) -> ArrivalProcess:
    """Instantiate a process by registry name (``repro workload gen``)."""
    key = kind.strip().lower()
    if key not in PROCESS_KINDS:
        raise TraceError(
            f"unknown arrival process {kind!r}; known: {sorted(PROCESS_KINDS)}"
        )
    return PROCESS_KINDS[key](base_rate_per_s=rate_per_s, **options)


# -------------------------------------------------------------- rendering
def render_trace(
    process: ArrivalProcess,
    *,
    duration_s: float,
    name: str,
    seed: int = 0,
    applications: Sequence[str] = ("wordcount", "grep", "terasort"),
    task_counts: Sequence[int] = (4, 8, 16),
) -> TraceSpec:
    """Render an arrival process to a deterministic :class:`TraceSpec`.

    All randomness comes from the named stream ``trace:{name}`` of the
    master ``seed``, so the same (process, duration, name, seed) renders
    the same trace on every machine — and a different trace *name* gets an
    independent stream rather than a shifted copy.

    Each arrival becomes one job; the application and map-task count are
    drawn uniformly from ``applications`` / ``task_counts`` after the
    arrival times, so the time curve is unaffected by the job mix.
    """
    if not applications:
        raise TraceError("applications must be non-empty")
    if not task_counts:
        raise TraceError("task_counts must be non-empty")
    rng = RandomStreams(seed).stream(f"trace:{name}")
    times = process.times(duration_s, rng)
    if not times:
        raise TraceError(
            f"process produced no arrivals over {duration_s}s "
            f"(rate {process.base_rate_per_s}/s too low?)"
        )
    app_picks = rng.integers(0, len(applications), size=len(times))
    size_picks = rng.integers(0, len(task_counts), size=len(times))
    jobs: List[TraceJob] = []
    for index, arrival in enumerate(times):
        count = int(task_counts[int(size_picks[index])])
        jobs.append(
            TraceJob(
                job_id=index,
                arrival_time=float(arrival),
                task_count=count,
                application=str(applications[int(app_picks[index])]),
                input_mb=count * BLOCK_MB,
            )
        )
    return TraceSpec(name=name, jobs=tuple(jobs))
