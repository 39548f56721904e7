"""Parity of the per-task host path with the code it replaced.

* The JobTracker's pending-work index (``JobTracker.pending_work``) equals
  the full scans over ``active_jobs`` after every heartbeat of every
  golden-corpus scenario: FIFO, Fair, E-Ant, Tarazu and LATE runs, the
  churn scenarios and a reduce crash (``fair-reducecrash-seed18``).
* HDFS placement reproduces ``Generator.choice(ids, size=r,
  replace=False)`` per block, draw for draw, leaving the same stream
  state.
* ``samples_from_phases`` is bit-identical to the window loop it replaced
  (kept below as ``_loop_samples_from_phases``).
"""

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DESKTOP, Cluster
from repro.energy.model import UtilizationSample, samples_from_phases
from repro.hadoop import HadoopConfig
from repro.hadoop.hdfs import BlockPlacer
from repro.hadoop.jobtracker import JobTracker
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.runner.record import build_record, record_digest
from repro.schedulers.base import Scheduler
from repro.simulation import Simulator

from ..conftest import build_stack, wordcount_spec
from ..test_golden_corpus import GOLDEN_FILES, _load


# ------------------------------------------------------ pending-work index
def _scan(jobtracker: JobTracker):
    slowstart = jobtracker.config.reduce_slowstart
    active = jobtracker.active_jobs
    maps = [job for job in active if job.pending_map_count > 0]
    reduces = [job for job in active if job.reduces_schedulable(slowstart)]
    return maps, reduces


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES])
def test_pending_work_index_matches_scan_after_every_heartbeat(path, monkeypatch):
    data = _load(path)
    spec = ScenarioSpec.from_json_dict(data["spec"])
    heartbeat = JobTracker.heartbeat
    checked = []

    def checked_heartbeat(self, tracker):
        tasks = heartbeat(self, tracker)
        maps, reduces = _scan(self)
        scheduler = self.scheduler
        assert scheduler.jobs_with_pending_maps() == maps
        assert scheduler.jobs_with_schedulable_reduces() == reduces
        assert scheduler.has_assignable_work() == bool(maps or reduces)
        if type(scheduler).may_assign is not Scheduler.may_assign:
            assert scheduler.may_assign() == bool(maps or reduces)
        checked.append(len(maps) + len(reduces))
        return tasks

    monkeypatch.setattr(JobTracker, "heartbeat", checked_heartbeat)
    result = execute_spec(spec)
    # Every scenario offers work at some heartbeat, and the checks did not
    # disturb the run.
    assert checked and max(checked) > 0
    record = build_record(spec, result, wall_seconds=0.0)
    assert record_digest(record) == data["expected_digest"]


def test_pending_work_keeps_admission_order_through_requeues():
    """A job whose maps all left and one came back rejoins at its rank;
    reduces join at the slowstart crossing and leave when taken."""
    config = HadoopConfig(reduce_slowstart=0.5)
    _sim, _cluster, jobtracker, _trackers = build_stack(config=config)
    jobs = [jobtracker.submit(wordcount_spec(num_maps=2, num_reduces=1)) for _ in range(3)]
    work = jobtracker.pending_work
    assert work.maps == jobs and work.reduces == []
    first = [jobs[0].take_map(0), jobs[0].take_map(0)]
    assert work.maps == jobs[1:]
    jobs[0].requeue(first[1])
    assert work.maps == jobs
    jobs[2].take_map(0)
    taken = jobs[2].take_map(0)
    assert work.maps == jobs[:2]
    # One of two maps done crosses the 0.5 gate.
    jobs[2].complete_task(taken)
    assert work.reduces == [jobs[2]]
    jobs[1].complete_task(jobs[1].take_map(0))
    assert work.reduces == [jobs[1], jobs[2]]
    reduce_task = jobs[1].take_reduce()
    assert work.reduces == [jobs[2]]
    jobs[1].requeue(reduce_task)
    assert work.reduces == [jobs[1], jobs[2]]
    assert work.maps == _scan(jobtracker)[0] and work.reduces == _scan(jobtracker)[1]


# ------------------------------------------------------------ HDFS placement
def _placer(num_machines: int, stride: int, replication: int, seed: int) -> BlockPlacer:
    cluster = Cluster(Simulator(), [(DESKTOP, num_machines)])
    placer = BlockPlacer(cluster, replication, np.random.default_rng(seed))
    # Non-contiguous machine ids, as after joins and decommissions.
    ids = [3 + stride * i for i in range(num_machines)]
    placer._machine_ids = np.array(ids)
    placer._id_list = list(ids)
    return placer


@settings(max_examples=150, deadline=None)
@given(
    num_machines=st.integers(min_value=1, max_value=64),
    stride=st.integers(min_value=1, max_value=7),
    replication=st.integers(min_value=1, max_value=4),
    blocks=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_placement_matches_choice_draw_for_draw(num_machines, stride, replication, blocks, seed):
    placer = _placer(num_machines, stride, replication, seed)
    reference = np.random.default_rng(seed)
    ids = np.array(placer._id_list)
    k = min(replication, num_machines)
    for count in blocks:
        expected = [
            tuple(int(m) for m in reference.choice(ids, size=k, replace=False))
            for _ in range(count)
        ]
        assert placer.place_job_blocks(count) == expected
        expected_one = tuple(int(m) for m in reference.choice(ids, size=k, replace=False))
        assert placer.place_block() == expected_one
        assert placer.rng.bit_generator.state == reference.bit_generator.state
    assert placer.rng.random() == reference.random()


def test_placement_matches_choice_on_a_large_fleet():
    placer = _placer(1500, 3, 3, seed=11)
    reference = np.random.default_rng(11)
    ids = np.array(placer._id_list)
    expected = [
        tuple(int(m) for m in reference.choice(ids, size=3, replace=False)) for _ in range(500)
    ]
    assert placer.place_job_blocks(500) == expected
    assert placer.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("replication", [200, 201], ids=["floyd", "tail-shuffle"])
def test_placement_matches_choice_at_numpy_method_cutoff(replication):
    """numpy's ``choice`` leaves Floyd's algorithm for a tail shuffle when
    more than 10,000 machines are sampled above ``n // 50`` (200 of
    10,001); both sides of that cutoff keep the stream."""
    placer = _placer(10001, 2, replication, seed=5)
    reference = np.random.default_rng(5)
    ids = np.array(placer._id_list)
    expected = [
        tuple(int(m) for m in reference.choice(ids, size=replication, replace=False))
        for _ in range(3)
    ]
    assert placer.place_job_blocks(3) == expected
    assert placer.rng.bit_generator.state == reference.bit_generator.state
    assert placer.rng.random() == reference.random()


# ------------------------------------------------------- samples_from_phases
def _loop_samples_from_phases(
    phases: Sequence[Tuple[float, float]],
    delta_t: float = 3.0,
    noise_factors: Optional[Callable[[int], Sequence[float]]] = None,
) -> List[UtilizationSample]:
    """The window loop ``samples_from_phases`` replaced, verbatim."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    boundaries: List[Tuple[float, float]] = []  # (end_time, utilization)
    clock = 0.0
    for duration, utilization in phases:
        if duration < 0:
            raise ValueError("phase durations must be non-negative")
        if duration == 0:
            continue
        clock += duration
        boundaries.append((clock, utilization))
    total = clock
    last = len(boundaries) - 1
    horizon = total - 1e-12
    raw: List[Tuple[float, float]] = []  # (mean_util, duration) per window
    window_start = 0.0
    phase_index = 0
    while window_start < horizon:
        window_end = window_start + delta_t
        if total < window_end:
            window_end = total
        weighted = 0.0
        cursor = window_start
        index = phase_index
        stop = window_end - 1e-12
        while cursor < stop:
            phase_end, utilization = boundaries[index]
            segment_end = window_end if window_end < phase_end else phase_end
            weighted += (segment_end - cursor) * utilization
            cursor = segment_end
            if cursor >= phase_end - 1e-12 and index < last:
                index += 1
        duration = window_end - window_start
        raw.append((weighted / duration if duration > 0 else 0.0, duration))
        window_start = window_end
        while phase_index < last and boundaries[phase_index][0] <= window_start + 1e-12:
            phase_index += 1
    if noise_factors is not None:
        factors = noise_factors(len(raw))
        factors = factors.tolist() if hasattr(factors, "tolist") else [float(f) for f in factors]
        samples = []
        for (mean_util, duration), factor in zip(raw, factors):
            noisy = mean_util * factor
            samples.append(
                tuple.__new__(UtilizationSample, (noisy if noisy > 0.0 else 0.0, duration))
            )
        return samples
    return [UtilizationSample(mean_util, duration) for mean_util, duration in raw]


def _bits(samples) -> List[Tuple[str, str, type]]:
    return [(u.hex(), d.hex(), type(s)) for s in samples for u, d in [s]]


_DELTA = st.sampled_from([3.0, 1.0, 0.7, 2.5, 5.0])
_UTIL = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 / 24, 0.5]),
)


@st.composite
def _phase_lists(draw):
    """1-4 phases: zero lengths, whole multiples of the window, and phase
    ends within 1e-12 of a window edge."""
    delta = draw(_DELTA)
    count = draw(st.integers(min_value=1, max_value=4))
    phases = []
    for _ in range(count):
        shape = draw(st.sampled_from(["free", "zero", "multiple", "near-edge"]))
        if shape == "zero":
            duration = 0.0
        elif shape == "multiple":
            duration = delta * draw(st.integers(min_value=1, max_value=6))
        elif shape == "near-edge":
            offset = draw(st.sampled_from([-1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12, -2e-12]))
            duration = max(0.0, delta * draw(st.integers(min_value=1, max_value=5)) + offset)
        else:
            duration = draw(st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
        phases.append((duration, draw(_UTIL)))
    return phases, delta


def _noise(seed: int):
    """Factors spanning below and above 1, with a zero and a negative."""
    rng = np.random.default_rng(seed)

    def factors(n):
        values = rng.lognormal(0.0, 0.3, n)
        if n > 2:
            values[1] = 0.0
            values[2] = -values[2]
        return values

    return factors


@settings(max_examples=400, deadline=None)
@given(case=_phase_lists(), seed=st.integers(min_value=0, max_value=2**32 - 1),
       noisy=st.booleans())
def test_samples_from_phases_bit_identical_to_the_window_loop(case, seed, noisy):
    phases, delta = case
    factors = _noise(seed) if noisy else None
    reference_factors = _noise(seed) if noisy else None
    got = samples_from_phases(phases, delta_t=delta, noise_factors=factors)
    expected = _loop_samples_from_phases(phases, delta_t=delta, noise_factors=reference_factors)
    assert _bits(got) == _bits(expected)


def test_samples_from_phases_edge_cases_match_the_window_loop():
    cases = [
        [],
        [(0.0, 0.5)],
        [(0.0, 0.5), (0.0, 0.1)],
        [(3.0, 0.2)],
        [(6.0, 0.2), (3.0, 0.9)],
        [(3.0 - 1e-12, 0.2), (3.0 + 1e-12, 0.7)],
        [(2.9999999999995, 0.3), (0.0, 1.0), (4.0, -0.0)],
        [(1e-13, 0.5), (7.0, 0.25)],
        [(17.0, 0.11)],
        [(7.0, 0.2), (5.0, 0.8)],
    ]
    for phases in cases:
        for delta in (3.0, 0.1, 40.0):
            got = samples_from_phases(phases, delta_t=delta)
            assert _bits(got) == _bits(_loop_samples_from_phases(phases, delta_t=delta)), phases
            assert all(not math.isnan(s.utilization) for s in got)
