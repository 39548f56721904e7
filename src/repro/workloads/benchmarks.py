"""PUMA benchmark profiles: Wordcount, Grep, Terasort.

Work amounts are calibrated so that, on the reference desktop:

* the map/shuffle/reduce completion-time breakdown matches Fig. 1(d) —
  Wordcount is map-(CPU-)intensive, Grep and Terasort are
  shuffle/reduce-(IO-)intensive;
* per-task energies under the Eq. 2 accounting rank machine types the way
  Fig. 9(a) observes (T420 cheapest for Wordcount; Desktop/Atom cheapest
  for Grep/Terasort);
* maximum energy-efficiency arrival rates on a Xeon-only cluster order as
  Wordcount < Grep < Terasort (Fig. 1(c): peaks at 20, 25, 35 tasks/min).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from .profiles import JobSpec, WorkloadProfile

__all__ = [
    "WORDCOUNT",
    "GREP",
    "TERASORT",
    "PUMA",
    "profile_by_name",
    "puma_job",
]

#: Wordcount — map-intensive / CPU-bound (Fig. 1(d)).
WORDCOUNT = WorkloadProfile(
    name="wordcount",
    map_cpu_seconds=14.0,
    map_io_seconds=3.0,
    map_output_ratio=0.25,
    reduce_cpu_per_mb=0.050,
    reduce_io_per_mb=0.030,
)

#: Grep — light map scan, shuffle/reduce-intensive per the paper's breakdown.
GREP = WorkloadProfile(
    name="grep",
    map_cpu_seconds=3.0,
    map_io_seconds=7.0,
    map_output_ratio=0.35,
    reduce_cpu_per_mb=0.020,
    reduce_io_per_mb=0.080,
)

#: Terasort — identity map, full-volume shuffle, IO-heavy reduce.
TERASORT = WorkloadProfile(
    name="terasort",
    map_cpu_seconds=2.5,
    map_io_seconds=8.0,
    map_output_ratio=1.0,
    reduce_cpu_per_mb=0.030,
    reduce_io_per_mb=0.100,
)

#: The PUMA suite used throughout the paper, by name.
PUMA: Dict[str, WorkloadProfile] = {
    profile.name: profile for profile in (WORDCOUNT, GREP, TERASORT)
}


def profile_by_name(name: str) -> WorkloadProfile:
    """Look up a PUMA profile by (case-insensitive) name."""
    try:
        return PUMA[name.strip().lower()]
    except KeyError:
        raise KeyError(f"unknown PUMA benchmark {name!r}; known: {sorted(PUMA)}") from None


def puma_job(
    name: str,
    input_gb: float,
    num_reduces: int = 0,
    submit_time: float = 0.0,
    pool: str = "default",
    size_class: str = None,
) -> JobSpec:
    """Convenience constructor for a PUMA job.

    When ``num_reduces`` is 0, a Hadoop-style default of one reduce per
    eight map tasks (min 1) is used.
    """
    profile = profile_by_name(name)
    input_mb = input_gb * 1024.0
    if num_reduces <= 0 and math.isfinite(input_mb):
        num_reduces = max(1, int(round(input_mb / 64.0 / 8.0)))
    return JobSpec(
        profile=profile,
        input_mb=input_mb,
        num_reduces=num_reduces,
        submit_time=submit_time,
        pool=pool,
        size_class=size_class,
    )


def standard_mix(input_gb: float = 18.75, stagger: float = 0.0) -> List[JobSpec]:
    """One job of each PUMA application (the Section II trio), optionally
    staggered ``stagger`` seconds apart."""
    jobs = []
    for index, name in enumerate(sorted(PUMA)):
        jobs.append(puma_job(name, input_gb=input_gb, submit_time=index * stagger))
    return jobs
