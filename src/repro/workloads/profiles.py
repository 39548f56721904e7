"""Workload profiles: the resource-demand shape of a MapReduce application.

A :class:`WorkloadProfile` captures everything the simulation needs to know
about an application: per-block map CPU/IO work, shuffle selectivity, and
per-megabyte reduce work — all expressed on the *reference machine* (the
Core i7 desktop, ``cpu_speed = io_speed = 1.0``).

A :class:`JobSpec` is the static description of one submitted job: which
profile, how much input, how many reduces, when it arrives.  The Hadoop
model turns a ``JobSpec`` into live tasks at submission time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["WorkloadProfile", "JobSpec", "SIZE_CLASSES"]

#: Job size classes used by the MSD workload (Table III).
SIZE_CLASSES = ("small", "medium", "large")


@dataclass(frozen=True)
class WorkloadProfile:
    """Resource-demand shape of a MapReduce application.

    All work amounts are reference-machine seconds (see module docstring).

    Parameters
    ----------
    name:
        Application name, e.g. ``"wordcount"``.
    map_cpu_seconds:
        CPU work of one map task per 64 MB block.
    map_io_seconds:
        IO work of one map task per block (input scan + spill).
    map_output_ratio:
        Map output bytes / map input bytes (shuffle selectivity).
        Terasort = 1.0; aggregating apps are well below 1.
    reduce_cpu_per_mb:
        Reduce-side CPU seconds per MB of shuffle input.
    reduce_io_per_mb:
        Reduce-side IO seconds per MB of shuffle input (merge + write).
    map_cores:
        Cores a running map task occupies (1.0 = single-threaded).
    reduce_cores:
        Cores a running reduce task occupies during its CPU phase.
    """

    name: str
    map_cpu_seconds: float
    map_io_seconds: float
    map_output_ratio: float
    reduce_cpu_per_mb: float
    reduce_io_per_mb: float
    map_cores: float = 1.0
    reduce_cores: float = 1.0

    def __post_init__(self) -> None:
        if self.map_cpu_seconds < 0 or self.map_io_seconds < 0:
            raise ValueError("map work amounts must be non-negative")
        if self.map_cpu_seconds + self.map_io_seconds <= 0:
            raise ValueError("map task must have some work")
        if not 0 <= self.map_output_ratio <= 2.0:
            raise ValueError(f"implausible map output ratio {self.map_output_ratio}")
        if self.reduce_cpu_per_mb < 0 or self.reduce_io_per_mb < 0:
            raise ValueError("reduce work rates must be non-negative")

    # ------------------------------------------------------- characterization
    @property
    def map_cpu_fraction(self) -> float:
        """Fraction of reference map-task time spent on CPU (busy fraction)."""
        return self.map_cpu_seconds / (self.map_cpu_seconds + self.map_io_seconds)

    @property
    def is_cpu_bound(self) -> bool:
        """CPU-bound apps spend most of their map time computing."""
        return self.map_cpu_fraction >= 0.5

    def resource_signature(self, buckets: int = 4) -> str:
        """Coarse demand signature for E-Ant's job-level exchange grouping.

        Jobs whose CPU-intensity falls in the same bucket and whose shuffle
        selectivity is similar are treated as "homogeneous jobs"
        (Section IV-D).  The signature deliberately excludes the job name:
        the JobTracker cannot rely on users naming jobs consistently.
        """
        cpu_bucket = min(int(self.map_cpu_fraction * buckets), buckets - 1)
        shuffle_bucket = min(int(self.map_output_ratio * buckets), buckets - 1)
        return f"cpu{cpu_bucket}:shuffle{shuffle_bucket}"

    def scaled(self, factor: float) -> "WorkloadProfile":
        """A profile with all work amounts multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            map_cpu_seconds=self.map_cpu_seconds * factor,
            map_io_seconds=self.map_io_seconds * factor,
            reduce_cpu_per_mb=self.reduce_cpu_per_mb * factor,
            reduce_io_per_mb=self.reduce_io_per_mb * factor,
        )


@dataclass(frozen=True)
class JobSpec:
    """Static description of one job submission.

    Parameters
    ----------
    profile:
        The application's :class:`WorkloadProfile`.
    input_mb:
        Total input size in MB; the number of map tasks is
        ``ceil(input_mb / block_mb)``.
    num_reduces:
        Reduce task count.
    submit_time:
        Simulation time (s) at which the job arrives at the JobTracker.
    pool:
        Fair-scheduler pool / user name.
    size_class:
        ``"small" | "medium" | "large"`` (Table III), or ``None``.
    name:
        Display name; defaults to ``profile.name``.
    """

    profile: WorkloadProfile
    input_mb: float
    num_reduces: int
    submit_time: float = 0.0
    pool: str = "default"
    size_class: Optional[str] = None
    name: str = field(default="")

    def __post_init__(self) -> None:
        # Range tests written so NaN fails them (its comparisons are all false).
        if not (0 < self.input_mb < math.inf):
            raise ValueError(
                f"input size must be a positive finite number of MB, got {self.input_mb!r}"
            )
        if self.num_reduces < 0:
            raise ValueError("reduce count must be non-negative")
        if not (0 <= self.submit_time < math.inf):
            raise ValueError(
                f"submit time must be a non-negative finite number, got {self.submit_time!r}"
            )
        if self.size_class is not None and self.size_class not in SIZE_CLASSES:
            raise ValueError(f"unknown size class {self.size_class!r}")
        if not self.name:
            object.__setattr__(self, "name", self.profile.name)

    def num_maps(self, block_mb: float = 64.0) -> int:
        """Map task count for a given HDFS block size."""
        return max(1, math.ceil(self.input_mb / block_mb))

    @property
    def shuffle_mb(self) -> float:
        """Total map-output bytes shuffled to reducers, in MB."""
        return self.input_mb * self.profile.map_output_ratio

    def shuffle_mb_per_reduce(self) -> float:
        """Shuffle volume each reduce task pulls, in MB."""
        if self.num_reduces == 0:
            return 0.0
        return self.shuffle_mb / self.num_reduces
