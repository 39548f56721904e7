"""The benchmark's in-process workloads: inputs, measured work, output checks.

Each ``run_*`` function performs one *repeat* of a workload inside the
calling interpreter and returns a plain dict (see :func:`new_repeat`).
``worker.py`` calls exactly one of them per fresh interpreter, so no state,
cache or peak RSS carries over from one repeat to the next.

Output checks: a DES run's ``record_digest`` must equal the digest pinned
for its workload and seed in :data:`PINNED`; for seeds without a pin the
digest is printed, and ``run.py`` requires every repeat of a run to agree.
A sweep's aggregate digest must be identical across its cold, warm and
resume passes (and equal the pin for pinned seeds).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

#: (workload, default seed) -> expected digest: ``record_digest`` of the
#: run's ``RunRecord`` for DES workloads, the ``SweepAggregate`` digest for
#: sweeps.
PINNED: Dict[tuple, str] = {
    ("paper-msd", 3): "2f0c5463ad31a0e2e61a673483e997df41fdd167d9064da38a29cea3d78bef39",
    ("sweep-grid", 0): "e9c0fcc9a8897ff636a1815a0f02228fd5e171dfafbaa5d283cabae63e0f0fdf",
}

#: sweep-grid: schedulers x seeds of a small 3-job PUMA mix.
SWEEP_SCHEDULERS = ("fifo", "fair", "e-ant")
SWEEP_SEEDS = 60
#: Warm and resume passes per repeat (each is cheap next to the cold pass).
SWEEP_REPLAYS = 2


def new_repeat() -> Dict[str, Any]:
    """The result record of one repeat (filled in by the workload)."""
    return {
        "ready_wall": 0.0,  # time.time() when set-up finished
        "generate_s": 0.0,  # workload input construction (host seconds)
        "attempted": 0,
        "failed": 0,
        "slo_missed": 0,
        "failures": [],  # one line per failed check
        "tasks": 0,  # tasks completed by the measured work
        "task_cpu_s": 0.0,  # CPU seconds that completed them
        "ops": 0,  # operations counted by cpu_us_per_op
        "op_cpu_s": 0.0,  # CPU seconds spent on them
        "cpu_s": 0.0,  # CPU seconds of all measured work
        "wall_s": 0.0,
        "peak_rss_mb": 0.0,
        "digest": "",
        "counters": {},
        "spans": None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_digest(workload: str, seed: int, digest: str) -> Optional[str]:
    """A failure line if ``digest`` contradicts the pin for (workload, seed)."""
    pinned = PINNED.get((workload, seed))
    if pinned is not None and digest != pinned:
        return f"{workload} seed {seed}: digest {digest[:16]} != pinned {pinned[:16]}"
    return None


def fail(repeat: Dict[str, Any], message: Optional[str]) -> None:
    if message:
        repeat["failed"] += 1
        repeat["failures"].append(message)


# ------------------------------------------------------------------ DES runs
def build_des_spec(workload: str, seed: int):
    from repro.experiments.scenarios import msd_scenario
    from repro.runner import ScenarioSpec

    if workload != "paper-msd":
        raise ValueError(f"not a DES workload: {workload}")
    jobs, hadoop = msd_scenario(seed=seed)
    return ScenarioSpec(jobs=tuple(jobs), scheduler="e-ant", hadoop=hadoop, seed=seed)


def run_des(workload: str, seed: int, spans=None) -> Dict[str, Any]:
    """One closed-batch E-Ant run of ``paper-msd``."""
    from repro.runner import record

    repeat = new_repeat()
    started = time.perf_counter()
    spec = build_des_spec(workload, seed)
    repeat["generate_s"] = time.perf_counter() - started
    repeat["ready_wall"] = time.time()
    if spans is not None:
        from spans import install

        install(spans)
    gc.collect()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    repeat["attempted"] = 1
    try:
        result = spec.run()
        digest = record.record_digest(record.build_record(spec, result))
    except Exception as error:  # a raising run is a failed operation
        fail(repeat, f"{workload} seed {seed}: run raised {error!r}")
        return repeat
    cpu1, wall1 = time.process_time(), time.perf_counter()
    if spans is not None:
        spans.remove()

    jobtracker = result.jobtracker
    core = jobtracker.core
    tasks = len(jobtracker.reports)
    attempts = sum(
        len(task.attempts)
        for job in jobtracker.jobs.values()
        for task in job.maps + job.reduces
    )
    # An operation is one simulated task: heartbeats per task vary with the
    # seed's job mix, tasks do not.
    repeat.update(
        tasks=tasks,
        task_cpu_s=cpu1 - cpu0,
        ops=tasks,
        op_cpu_s=cpu1 - cpu0,
        cpu_s=cpu1 - cpu0,
        wall_s=wall1 - wall0,
        digest=digest,
    )
    repeat["counters"] = {
        "heartbeats": core.heartbeats_handled,
        "attempts": attempts,
        "slot_stats": dict(getattr(result.scheduler, "slot_stats", {})),
    }
    if len(jobtracker.completed_jobs) != len(spec.jobs):
        fail(repeat, f"{workload} seed {seed}: {len(jobtracker.completed_jobs)}"
                     f"/{len(spec.jobs)} jobs completed")
    fail(repeat, check_digest(workload, seed, digest))
    del result
    repeat["peak_rss_mb"] = peak_rss_mb()
    return repeat


# ---------------------------------------------------------------- sweep-grid
def build_sweep_specs(seed: int) -> List[Any]:
    from repro.runner import ScenarioSpec
    from repro.workloads import puma_job

    mix = (
        puma_job("wordcount", 0.5, submit_time=0.0),
        puma_job("grep", 0.5, submit_time=20.0),
        puma_job("terasort", 0.5, submit_time=40.0),
    )
    return [
        ScenarioSpec(jobs=mix, scheduler=scheduler, seed=seed * SWEEP_SEEDS + index)
        for scheduler in SWEEP_SCHEDULERS
        for index in range(SWEEP_SEEDS)
    ]


def run_sweep(seed: int, workdir: Path, spans=None) -> Dict[str, Any]:
    """Cold, warm and resume passes of one spooled sweep, serial and cached."""
    from repro.runner import ResultCache, SweepRunner
    from repro.runner.spool import ResultSpool

    repeat = new_repeat()
    started = time.perf_counter()
    specs = build_sweep_specs(seed)
    repeat["generate_s"] = time.perf_counter() - started
    cache = ResultCache(directory=workdir / "cache")
    repeat["ready_wall"] = time.time()
    slot_stats: Dict[str, int] = {}
    if spans is not None:
        from repro.runner import sweep
        from spans import install

        install(spans)
        timed_build = sweep.build_record

        def build_record(spec, result, *args, **kwargs):  # sums E-Ant slot offers
            for key, value in getattr(result.scheduler, "slot_stats", {}).items():
                slot_stats[key] = slot_stats.get(key, 0) + value
            return timed_build(spec, result, *args, **kwargs)

        sweep.build_record = build_record
    gc.collect()

    total = len(specs)
    tasks = sum(
        job.num_maps(spec.hadoop.block_mb) + job.num_reduces
        for spec in specs
        for job in spec.jobs
    )
    digests = []
    timings: Dict[str, List[float]] = {"cold": [], "warm": [], "resume": []}
    cpu: Dict[str, List[float]] = {"cold": [], "warm": [], "resume": []}
    cold_spool = workdir / "cold.jsonl"
    passes = [("cold", cold_spool)]
    passes += [("warm", workdir / f"warm{i}.jsonl") for i in range(SWEEP_REPLAYS)]
    passes += [("resume", cold_spool)] * SWEEP_REPLAYS
    for kind, spool_path in passes:
        runner = SweepRunner(workers=1, cache=cache)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        repeat["attempted"] += total
        try:
            aggregate = runner.run_spooled(specs, ResultSpool(spool_path))
        except Exception as error:
            fail(repeat, f"sweep-grid {kind} pass raised {error!r}")
            repeat["failed"] += total - 1
            continue
        cpu[kind].append(time.process_time() - cpu0)
        timings[kind].append(time.perf_counter() - wall0)
        report = runner.last_report
        expected = {"cold": report.executed, "warm": report.cache_hits,
                    "resume": report.resumed}[kind]
        if expected != total:
            fail(repeat, f"sweep-grid {kind} pass resolved {expected}/{total} "
                         f"specs through the expected path")
        digests.append(aggregate.digest())
    if spans is not None:
        sweep.build_record = timed_build
        spans.remove()

    if digests:
        repeat["digest"] = digests[0]
        for kind_digest in digests[1:]:
            if kind_digest != digests[0]:
                fail(repeat, "sweep-grid aggregate digest differs between passes")
        fail(repeat, check_digest("sweep-grid", seed, digests[0]))
    # cpu_us_per_op: one warm and one resume pass (the median of each), per
    # spec they resolved.  Warm passes cost more than resume passes, so a
    # median over both kinds would land between the two groups.
    repeat.update(
        tasks=tasks,
        task_cpu_s=sum(cpu["cold"]),
        ops=2 * total,
        op_cpu_s=statistics.median(cpu["warm"] or [0.0])
        + statistics.median(cpu["resume"] or [0.0]),
        cpu_s=sum(sum(c) for c in cpu.values()),
        wall_s=sum(sum(t) for t in timings.values()),
    )
    repeat["counters"] = {
        "spool_bytes": sum(p.stat().st_size for p in workdir.glob("*.jsonl")),
        "sweep_cold_specs_per_s": _rate(total, timings["cold"]),
        "sweep_warm_specs_per_s": _rate(total, timings["warm"]),
        "sweep_resume_specs_per_s": _rate(total, timings["resume"]),
        "slot_stats": slot_stats,
    }
    repeat["peak_rss_mb"] = peak_rss_mb()
    return repeat


def _rate(count: int, seconds: List[float]) -> float:
    """``count`` items per second at the median of ``seconds``."""
    return count / statistics.median(seconds) if seconds else 0.0
