"""The MSD ("Microsoft-Derived") synthetic workload of Section V-C.

The paper models a month of production jobs from a Microsoft datacenter
(Appuswamy et al., SoCC'13) by running PUMA Wordcount / Terasort / Grep with
input sizes drawn from the Table III distribution, scaled down to 87 jobs:

====== ======= ============ ============== ==============
Class  % jobs  Input size   # map tasks    # reduce tasks
====== ======= ============ ============== ==============
Small  40 %    1 GB-100 GB  16-1600        4-128
Medium 20 %    0.1 TB-1 TB  1600-16000     128-256
Large  10 %    1 TB-10 TB   16000-160000   256-1024
====== ======= ============ ============== ==============

The three classes cover 70 % of the original trace; the paper drops the
smallest 20 % and largest 10 % of jobs, so here the class shares are
renormalized to 4:2:1 over the generated jobs.  Input sizes are drawn
log-uniformly within each class range (heavy-tailed job-size distributions
are roughly uniform in log space), and a ``task_scale`` divisor shrinks task
*counts* — not per-task work — so a laptop-scale simulation keeps the same
scheduling structure (many waves, mixed job sizes) at feasible event counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .benchmarks import PUMA
from .profiles import JobSpec, WorkloadProfile

__all__ = ["MSDConfig", "generate_msd_workload", "CLASS_SPECS"]

#: Table III, per class: (share weight, (min_gb, max_gb), (min_reduces, max_reduces)).
CLASS_SPECS: Dict[str, Tuple[float, Tuple[float, float], Tuple[int, int]]] = {
    "small": (4.0, (1.0, 100.0), (4, 128)),
    "medium": (2.0, (100.0, 1000.0), (128, 256)),
    "large": (1.0, (1000.0, 10000.0), (256, 1024)),
}


@dataclass(frozen=True)
class MSDConfig:
    """Parameters of the MSD generator.

    Parameters
    ----------
    n_jobs:
        Total jobs (paper: 87).
    task_scale:
        Divisor applied to map/reduce *counts* for simulation feasibility.
        1.0 reproduces Table III counts literally.
    mean_interarrival_s:
        Mean of the exponential inter-arrival time between submissions.
    block_mb:
        HDFS block size used to convert scaled map counts back to input MB.
    applications:
        Application names drawn uniformly per job (paper: the PUMA trio).
    max_maps:
        Safety cap on per-job scaled map count (the paper similarly drops
        its largest jobs).
    seed_label:
        RNG stream name; vary to get a different but reproducible draw.
    """

    n_jobs: int = 87
    task_scale: float = 8.0
    mean_interarrival_s: float = 60.0
    block_mb: float = 64.0
    applications: Sequence[str] = ("wordcount", "grep", "terasort")
    max_maps: int = 600
    min_maps: int = 2
    seed_label: str = "msd"

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.task_scale <= 0:
            raise ValueError("task_scale must be positive")
        unknown = [a for a in self.applications if a not in PUMA]
        if unknown:
            raise ValueError(f"unknown applications: {unknown}")


def _class_assignment(config: MSDConfig, rng: np.random.Generator) -> List[str]:
    """Assign each of the ``n_jobs`` a size class in 4:2:1 proportions.

    Deterministic largest-remainder apportionment keeps the class mix exact
    for any ``n_jobs``; the shuffle only randomizes arrival order.
    """
    weights = {name: spec[0] for name, spec in CLASS_SPECS.items()}
    total_weight = sum(weights.values())
    quotas = {name: config.n_jobs * w / total_weight for name, w in weights.items()}
    counts = {name: int(math.floor(q)) for name, q in quotas.items()}
    leftover = config.n_jobs - sum(counts.values())
    by_remainder = sorted(quotas, key=lambda n: quotas[n] - counts[n], reverse=True)
    for name in by_remainder[:leftover]:
        counts[name] += 1
    classes: List[str] = []
    for name, count in counts.items():
        classes.extend([name] * count)
    rng.shuffle(classes)
    return classes


def generate_msd_workload(
    *,
    config: MSDConfig = MSDConfig(),
    streams: "RandomStreams" = None,  # noqa: F821 - forward ref
) -> List[JobSpec]:
    """Draw the MSD job list.

    Returns jobs sorted by submit time.  With the default config this is
    87 jobs in roughly 50/25/12 small/medium/large proportions across the
    three PUMA applications, with Poisson arrivals.  Both parameters are
    keyword-only.
    """
    from ..simulation import RandomStreams

    if streams is None:
        streams = RandomStreams(0)
    rng = streams.stream(config.seed_label)

    classes = _class_assignment(config, rng)
    jobs: List[JobSpec] = []
    submit_time = 0.0
    for index, size_class in enumerate(classes):
        _weight, (min_gb, max_gb), (min_red, max_red) = CLASS_SPECS[size_class]
        input_gb = float(np.exp(rng.uniform(np.log(min_gb), np.log(max_gb))))
        raw_maps = input_gb * 1024.0 / config.block_mb
        scaled_maps = int(round(raw_maps / config.task_scale))
        scaled_maps = max(config.min_maps, min(config.max_maps, scaled_maps))
        # Reduces scale with the same factor, keeping the Table III ratio.
        raw_reduces = rng.uniform(min_red, max_red)
        scaled_reduces = max(1, int(round(raw_reduces / config.task_scale)))
        application = config.applications[int(rng.integers(len(config.applications)))]
        profile: WorkloadProfile = PUMA[application]
        submit_time += float(rng.exponential(config.mean_interarrival_s))
        jobs.append(
            JobSpec(
                profile=profile,
                input_mb=scaled_maps * config.block_mb,
                num_reduces=scaled_reduces,
                submit_time=submit_time,
                size_class=size_class,
                name=f"{application}-{size_class[0].upper()}{index:03d}",
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


def class_histogram(jobs: Sequence[JobSpec]) -> Dict[str, int]:
    """Job count per size class (validation helper for Table III tests)."""
    histogram: Dict[str, int] = {}
    for job in jobs:
        key = job.size_class or "unclassified"
        histogram[key] = histogram.get(key, 0) + 1
    return histogram
