"""A fault-free run leaves nothing for the cyclic garbage collector.

A ``Process`` drops its generator and bound-method caches when it
terminates, and one that nothing joined queues no exit event.  Before
that, every task attempt left a five-object cycle
(process, bound ``_resume``, bound ``send``, generator, exit event) that
only ``gc`` could reclaim — about 90,000 objects in the Fig. 8 MSD run.
"""

import gc

from repro.runner.engine import execute_spec

from .corpus import build_corpus


def test_fault_free_eant_run_leaves_no_cyclic_garbage():
    spec = dict(build_corpus())["eant-trio-seed0"]
    assert spec.scheduler == "e-ant" and spec.faults is None
    gc.collect()
    gc.disable()
    try:
        result = execute_spec(spec)
        garbage = gc.collect()
    finally:
        gc.enable()
    attempts = sum(
        len(task.attempts)
        for job in result.jobtracker.jobs.values()
        for task in job.maps + job.reduces
    )
    assert len(result.jobtracker.completed_jobs) == len(spec.jobs) and attempts > 0
    assert garbage == 0, f"{garbage} unreachable objects after {attempts} attempts"
