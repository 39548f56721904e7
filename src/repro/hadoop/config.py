"""Hadoop cluster configuration (Section V-B / Appendix B settings)."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["HadoopConfig"]


@dataclass(frozen=True)
class HadoopConfig:
    """Framework-level knobs of the simulated Hadoop 1.x deployment.

    Defaults follow Section V-B and Hadoop 1.2.1 conventions.

    Parameters
    ----------
    heartbeat_interval:
        TaskTracker heartbeat period (s); also the Δt of Eq. 2 sampling.
    block_mb:
        HDFS block size (Section V-B: 64 MB).
    replication:
        HDFS replication factor.
    control_interval:
        E-Ant's re-optimization period (Section V-B: 5 minutes).
    reduce_slowstart:
        Fraction of a job's maps that must complete before its reduces
        become schedulable.  Hadoop ships 0.05, but with two reduce slots
        per node early reduces squat on the scarce reduce pool while
        waiting for the map barrier; the Cloudera tuning guidance the
        paper follows (Section V-C) recommends a high value for
        shuffle-heavy mixes, so 0.95 is the default here (shuffle volumes
        transfer in seconds on the simulated GigE fabric, so late launch
        costs almost no overlap).
    remote_read_penalty:
        Extra IO-time factor for non-local map input on top of the network
        transfer itself (seek/stream overhead of remote reads).
    io_phase_cores:
        CPU demand (cores) of a task while in an IO-bound phase.
    tracker_expiry:
        Seconds without a heartbeat after which the JobTracker declares a
        TaskTracker dead and requeues its running tasks (Hadoop's
        mapred.tasktracker.expiry.interval, scaled to the simulation's
        3 s heartbeats).  0 disables expiry.
    """

    heartbeat_interval: float = 3.0
    block_mb: float = 64.0
    replication: int = 3
    control_interval: float = 300.0
    reduce_slowstart: float = 0.95
    remote_read_penalty: float = 1.3
    io_phase_cores: float = 0.10
    tracker_expiry: float = 30.0

    def __post_init__(self) -> None:
        # NaN slips past every range check below (all its comparisons are
        # false) and would, e.g., silently disable tracker expiry.
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.block_mb <= 0:
            raise ValueError("block size must be positive")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.control_interval <= 0:
            raise ValueError("control interval must be positive")
        if not 0.0 <= self.reduce_slowstart <= 1.0:
            raise ValueError("reduce slowstart must be in [0, 1]")
        if self.remote_read_penalty < 1.0:
            raise ValueError("remote read penalty must be >= 1")
        if self.io_phase_cores < 0:
            raise ValueError("io phase core demand must be non-negative")
        if self.tracker_expiry < 0:
            raise ValueError("tracker expiry must be non-negative")
