"""Whole-job arrival mixes for the multi-job evaluation scenarios.

:func:`uniform_job_stream` shuffles equal-sized jobs across applications
and submits them on a cumulative-exponential schedule.  Open-loop task
streams (the Section II case study) draw their timestamps straight from
:func:`repro.workloads.traces.poisson_process_times`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .benchmarks import profile_by_name
from .profiles import JobSpec
from .traces.arrivals import cumulative_exponential_times

__all__ = ["uniform_job_stream"]


def uniform_job_stream(
    applications: Sequence[str],
    jobs_per_app: int,
    input_gb: float,
    mean_interarrival_s: float,
    rng: np.random.Generator,
) -> List[JobSpec]:
    """A shuffled stream of equal-sized jobs across ``applications``.

    Used by the exchange-strategy and convergence experiments, which need a
    controllable number of *homogeneous* jobs (Fig. 11(b)).
    """
    if jobs_per_app < 1:
        raise ValueError("jobs_per_app must be >= 1")
    names = [name for name in applications for _ in range(jobs_per_app)]
    rng.shuffle(names)
    # The submit schedule comes from the shared arrival-curve module; the
    # shuffle-then-cumulative-exponential draw order is the historical one.
    submits = cumulative_exponential_times(len(names), mean_interarrival_s, rng)
    jobs: List[JobSpec] = []
    for index, (name, submit) in enumerate(zip(names, submits)):
        profile = profile_by_name(name)
        input_mb = input_gb * 1024.0
        num_reduces = max(1, int(round(input_mb / 64.0 / 8.0)))
        jobs.append(
            JobSpec(
                profile=profile,
                input_mb=input_mb,
                num_reduces=num_reduces,
                submit_time=submit,
                name=f"{name}-{index:03d}",
            )
        )
    return jobs
