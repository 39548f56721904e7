"""Job-performance fairness metrics (Section VI-D).

The paper measures fairness as the inverse of the variance of per-job
*slowdown*, where slowdown is a job's actual completion time divided by
its standalone completion time (running alone on the cluster).  Measuring
standalone times experimentally would need one extra run per job, so this
module provides an analytic standalone estimate used consistently across
all schedulers: the cluster's aggregate service rates bound how fast the
job's map and reduce phases could possibly drain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster import Cluster
from ..hadoop import HadoopConfig
from ..workloads import JobSpec

__all__ = [
    "estimate_standalone_jct",
    "slowdown",
    "fairness_from_slowdowns",
    "jains_index",
]


def estimate_standalone_jct(spec: JobSpec, cluster: Cluster, config: HadoopConfig) -> float:
    """Analytic completion-time estimate for a job running alone.

    The map phase drains at the sum of per-machine map service rates
    (slots / per-task duration); the reduce phase likewise.  The shuffle
    tail adds one full transfer of a reduce's shuffle share.  This is a
    deliberately optimistic but *scheduler-independent* denominator for
    the slowdown ratio.
    """
    profile = spec.profile
    num_maps = spec.num_maps(config.block_mb)

    map_rate = 0.0
    reduce_rate = 0.0
    shuffle_mb = spec.shuffle_mb_per_reduce()
    for machine in cluster:
        mspec = machine.spec
        map_duration = (
            profile.map_cpu_seconds / mspec.cpu_speed
            + profile.map_io_seconds / mspec.io_speed
        )
        map_rate += mspec.map_slots / max(map_duration, 1e-9)
        reduce_duration = (
            profile.reduce_cpu_per_mb * shuffle_mb / mspec.cpu_speed
            + profile.reduce_io_per_mb * shuffle_mb / mspec.io_speed
        )
        reduce_rate += mspec.reduce_slots / max(reduce_duration, 1e-6)

    map_time = num_maps / map_rate
    shuffle_tail = shuffle_mb / cluster.network.nic_mb_per_s
    reduce_time = spec.num_reduces / reduce_rate if spec.num_reduces else 0.0
    return map_time + shuffle_tail + reduce_time


def slowdown(actual_jct: float, standalone_jct: float) -> float:
    """Normalized execution time (>= 1 in a well-behaved system)."""
    if standalone_jct <= 0:
        raise ValueError("standalone completion time must be positive")
    if actual_jct < 0:
        raise ValueError("actual completion time must be non-negative")
    return actual_jct / standalone_jct


def fairness_from_slowdowns(slowdowns: Sequence[float]) -> float:
    """The paper's fairness metric: 1 / variance of slowdowns.

    A tiny epsilon keeps the metric finite when all jobs experience
    identical slowdown (a perfectly fair outcome).
    """
    values = np.asarray(slowdowns, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one slowdown")
    return float(1.0 / (np.var(values) + 1e-9))


def jains_index(slowdowns: Sequence[float]) -> float:
    """Jain's fairness index over slowdowns (supplementary metric).

    1.0 = perfectly fair; 1/n = maximally unfair.  Reported alongside the
    paper's inverse-variance metric because it is scale-free.
    """
    values = np.asarray(slowdowns, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one slowdown")
    total = values.sum()
    squares = (values**2).sum()
    if squares == 0:
        return 1.0
    return float(total**2 / (values.size * squares))
