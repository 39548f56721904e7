"""Data-locality impact (Fig. 6).

The paper runs Wordcount jobs whose input has a controlled fraction of
node-local blocks and shows job completion time falling as locality rises
(10 % / 40 % / 80 % on the x-axis).  We reproduce it by overriding HDFS
placement: non-local blocks get empty replica sets, so every read of them
streams over the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..cluster import Cluster, Network, paper_fleet
from ..hadoop import BlockPlacer, HadoopConfig
from ..simulation import RandomStreams, Simulator
from ..workloads import puma_job
from .harness import run_scenario

__all__ = ["LocalityPoint", "fig6_locality_impact"]


@dataclass(frozen=True)
class LocalityPoint:
    """Completion time of a job with a given local-block fraction."""

    local_fraction: float
    completion_time_s: float
    locality_rate: float


def fig6_locality_impact(
    fractions: Sequence[float] = (0.1, 0.4, 0.8),
    input_gb: float = 20.0,
    seed: int = 0,
) -> List[LocalityPoint]:
    """Fig. 6: Wordcount completion time vs % of local input data."""
    points: List[LocalityPoint] = []
    for fraction in fractions:
        # Build a throwaway placer (same seed) just to draw the placement;
        # run_scenario rebuilds the same cluster deterministically.
        sim = Simulator()
        streams = RandomStreams(seed)
        cluster = Cluster(sim, paper_fleet(), Network())
        config = HadoopConfig()
        placer = BlockPlacer(cluster, config.replication, streams.stream("hdfs"))
        job = puma_job("wordcount", input_gb=input_gb)
        placements = placer.place_with_locality(job.num_maps(config.block_mb), fraction)
        # A blocking (oversubscribed) switch makes heavy remote reading
        # expensive, as on the paper's commodity fabric.
        result = run_scenario(
            [job],
            scheduler="fair",
            seed=seed,
            placements={0: placements},
            # The locality study stresses the fabric: an oversubscribed
            # switch and seek-bound remote streams, as on a commodity rack.
            network=Network(backplane_mb_per_s=2.0 * Network().nic_mb_per_s),
            hadoop=HadoopConfig(remote_read_penalty=2.2),
        )
        metrics = result.metrics
        points.append(
            LocalityPoint(
                local_fraction=fraction,
                completion_time_s=metrics.job_results[0].completion_time,
                locality_rate=metrics.collector.locality_rate,
            )
        )
    return points
