"""HDFS block placement and data locality.

Only the properties the schedulers interact with are modelled: which
machines hold a replica of each map task's input block (drives node-local
vs remote reads) and the capacity-weighted random placement Hadoop's
balancer converges to.  Placement supports a *locality bias* so the Fig. 6
experiment can synthesize job inputs with a controlled fraction of blocks
local to the schedulable machines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Cluster

__all__ = ["BlockPlacer"]


class BlockPlacer:
    """Chooses replica hosts for the input blocks of submitted jobs.

    Parameters
    ----------
    cluster:
        The cluster whose machines can hold replicas.
    replication:
        Replicas per block (distinct machines; capped at cluster size).
    rng:
        RNG for placement draws (stream ``"hdfs"`` by convention).
    """

    def __init__(self, cluster: Cluster, replication: int, rng: np.random.Generator) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.cluster = cluster
        self.replication = min(replication, len(cluster))
        self.rng = rng
        # Hadoop spreads blocks roughly uniformly across DataNodes of equal
        # disk size (all Table I machines have 1 TB disks).
        self._machine_ids = np.array(cluster.machine_ids)
        self._id_list: List[int] = [int(m) for m in cluster.machine_ids]
        n, k = len(self._id_list), self.replication
        #: The bounds of one block's ``choice(ids, k, replace=False)`` draws:
        #: Floyd's algorithm draws from ``[0, j]`` for j = n-k .. n-1, then
        #: the result's shuffle from ``[0, i]`` for i = k-1 .. 1.
        self._floyd_bounds = np.array(
            list(range(n - k, n)) + list(range(k - 1, 0, -1)), dtype=np.int64
        )
        # numpy switches from Floyd's algorithm to a tail shuffle for large
        # samples of populations above 10,000.
        self._floyd = not (n > 10000 and k > n // 50)

    def place_block(self) -> Tuple[int, ...]:
        """Replica host ids for one block (distinct machines)."""
        return self.place_job_blocks(1)[0]

    def place_job_blocks(self, num_blocks: int) -> List[Tuple[int, ...]]:
        """Replica host tuples for all blocks of one job.

        Equal, draw for draw and in the stream state it leaves, to one
        ``rng.choice(ids, size=replication, replace=False)`` per block:
        every bounded draw those calls would make comes from one
        ``rng.integers`` call, and each block's draws go through
        ``choice``'s own Floyd selection and shuffle.  (``choice`` spends
        most of its time in numpy's Python-level argument handling, once
        per block.)
        """
        if num_blocks < 0:
            raise ValueError("block count must be non-negative")
        ids = self._id_list
        n, k = len(ids), self.replication
        if not self._floyd:
            return [
                tuple(int(m) for m in self.rng.choice(self._machine_ids, size=k, replace=False))
                for _ in range(num_blocks)
            ]
        if not num_blocks or not k:
            return [()] * num_blocks
        bounds = self._floyd_bounds
        draws = self.rng.integers(0, np.tile(bounds, num_blocks), endpoint=True).tolist()
        floyd_range = range(n - k, n)
        shuffle_range = range(k - 1, 0, -1)
        width = len(bounds)
        placements: List[Tuple[int, ...]] = []
        for start in range(0, width * num_blocks, width):
            chosen: List[int] = []
            for j, value in zip(floyd_range, draws[start : start + k]):
                chosen.append(j if value in chosen else value)
            for i, j in zip(shuffle_range, draws[start + k : start + width]):
                chosen[i], chosen[j] = chosen[j], chosen[i]
            placements.append(tuple([ids[c] for c in chosen]))
        return placements

    def place_with_locality(
        self,
        num_blocks: int,
        local_fraction: float,
        local_hosts: Optional[Sequence[int]] = None,
    ) -> List[Tuple[int, ...]]:
        """Placement where only ``local_fraction`` of blocks are local.

        Used by the Fig. 6 experiment: blocks outside the local fraction
        get an empty replica tuple, forcing every read of them to be
        remote regardless of where the task runs.  Blocks inside the
        fraction are placed normally (optionally restricted to
        ``local_hosts``).
        """
        if not 0.0 <= local_fraction <= 1.0:
            raise ValueError("local fraction must be in [0, 1]")
        hosts = (
            np.array(sorted(local_hosts), dtype=int)
            if local_hosts is not None
            else self._machine_ids
        )
        if local_hosts is not None and len(hosts) == 0:
            raise ValueError("local_hosts must not be empty")
        placements: List[Tuple[int, ...]] = []
        n_local = int(round(num_blocks * local_fraction))
        for index in range(num_blocks):
            if index < n_local:
                k = min(self.replication, len(hosts))
                chosen = self.rng.choice(hosts, size=k, replace=False)
                placements.append(tuple(int(m) for m in chosen))
            else:
                placements.append(())
        # Shuffle so local blocks are not clustered at the job's start.
        self.rng.shuffle(placements)
        return placements

    def pick_remote_source(self, replica_hosts: Tuple[int, ...], reader_id: int) -> int:
        """Machine a remote read streams from (any replica but the reader).

        With an empty replica tuple (synthetic off-cluster data, as in the
        locality experiment), the read streams from a uniformly random
        other machine, modelling an off-rack fetch.
        """
        candidates = [h for h in replica_hosts if h != reader_id]
        if not candidates:
            ids = self.cluster.machine_index().ids
            others = ids[ids != reader_id]
            if len(others) == 0:  # single-machine cluster: read is effectively local
                return reader_id
            return int(self.rng.choice(others))
        return int(self.rng.choice(candidates))
