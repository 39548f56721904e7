"""The fixed-order float sums and the list sampler of E-Ant's Eq. 8 draw.

``pairwise_sum`` must round exactly as ``ndarray.sum()`` does, and
``sample_index`` must pick exactly the index the numpy
``cdf``/``searchsorted`` form picked, or E-Ant's RNG draws (and every
golden digest) move.  ``left_sum``, ``TaskEnergyModel.estimate``, the
fleet totals and means in ``RunMetrics``, its completion-time means and
Tarazu's compute weights must not follow builtin ``sum()``, which
compensates float sums from Python 3.12 on.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DESKTOP, T420, Cluster, Machine
from repro.core import EAntScheduler
from repro.core.floatsum import left_sum, pairwise_sum
from repro.core.scheduler import sample_index
from repro.energy.model import TaskEnergyModel, UtilizationSample
from repro.metrics import JobResult, RunMetrics
from repro.observability import NULL_TRACER
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.schedulers import TarazuScheduler
from repro.simulation import Simulator
from repro.workloads import puma_job

finite_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _numpy_sample_index(weights, draw):
    """The sampler before it moved to Python floats."""
    weights = np.asarray(weights, dtype=float)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return min(int(cdf.searchsorted(draw, side="right")), len(weights) - 1)


@given(st.lists(finite_weights, min_size=0, max_size=300))
@settings(max_examples=400, deadline=None)
def test_pairwise_sum_matches_ndarray_sum(values):
    # Lengths 0-300 cover the plain loop (< 8), the eight accumulators
    # (8-128) and the split into halves (> 128).
    assert pairwise_sum(values) == float(np.asarray(values, dtype=float).sum())


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 1000])
def test_pairwise_sum_matches_ndarray_sum_at_block_edges(length):
    rng = np.random.default_rng(length)
    values = (rng.random(length) * 10.0 ** rng.uniform(-6, 6, length)).tolist()
    assert pairwise_sum(values) == float(np.asarray(values, dtype=float).sum())


@given(
    st.lists(finite_weights, min_size=1, max_size=30).filter(lambda w: pairwise_sum(w) > 0),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=400, deadline=None)
def test_sample_index_matches_cdf_searchsorted(weights, draw):
    index = min(sample_index(weights, pairwise_sum(weights), draw), len(weights) - 1)
    assert index == _numpy_sample_index(weights, draw)


@pytest.mark.parametrize("count", [1, 2, 6, 22])
def test_sample_index_with_all_equal_weights(count):
    weights = [0.37] * count
    total = pairwise_sum(weights)
    for draw in np.linspace(0.0, 1.0, 97, endpoint=False).tolist():
        index = min(sample_index(weights, total, draw), count - 1)
        assert index == _numpy_sample_index(weights, draw)


class _Job:
    def __init__(self, job_id):
        self.job_id = job_id


def test_zero_total_draws_a_uniform_index_from_the_same_stream():
    """With all weights zero the sampler falls back to ``rng.integers``,
    consuming the stream exactly as before."""
    jobs = [_Job(i) for i in range(5)]
    scheduler = EAntScheduler(rng=np.random.default_rng(42))
    twin = np.random.default_rng(42)
    for _ in range(20):
        chosen = scheduler._sample_job(jobs, None, 0, None, weights=[0.0] * len(jobs))
        assert chosen is jobs[int(twin.integers(len(jobs)))]


#: Seven Eq. 2 sample windows (idle 80 W over 6 slots, alpha 120 W) whose
#: per-window energies builtin sum() adds differently from a left-to-right
#: fold on Python 3.12+ (checked with 3.12.1: ...285bp+10 vs ...285ap+10).
DISAGREEING_SAMPLES = [
    (0.943357, 3.0),
    (0.648975, 3.0),
    (0.9009, 3.0),
    (0.113206, 3.0),
    (0.469069, 3.0),
    (0.246573, 3.0),
    (0.543761, 1.764429),
]
LEFT_FOLD = float.fromhex("0x1.89a6c61a9285ap+10")


def test_estimate_folds_left_to_right_on_every_interpreter():
    model = TaskEnergyModel(idle_watts=80.0, alpha_watts=120.0, total_slots=6)
    samples = [UtilizationSample(u, d) for u, d in DISAGREEING_SAMPLES]
    energies = [model.sample_energy(sample) for sample in samples]
    assert model.estimate(samples) == LEFT_FOLD
    assert left_sum(energies) == LEFT_FOLD


def test_left_sum_of_nothing_is_int_zero_like_sum():
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert TaskEnergyModel(80.0, 120.0, 6).estimate([]) == 0


#: ``1e16 + 1.0`` rounds back to ``1e16``, so the left fold of these
#: loses the 1.0 that a compensated sum (3.12's ``sum()``) keeps.
CANCELLING = [1e16, 1.0, -1e16]


def _left_fold_only(values):
    """``left_sum(values)``, after checking a compensated sum differs."""
    assert left_sum(values) != math.fsum(values)
    return left_sum(values)


def test_run_metrics_energy_totals_fold_left_to_right(monkeypatch):
    """The fleet's idle, dynamic and total joules in ``RunMetrics``."""
    idle = CANCELLING + [0.0, 0.0, 0.0]
    dynamic = [0.0, 0.0, 0.0] + CANCELLING
    finish = Cluster.finish_energy_accounting

    def finish_with_crafted_energy(cluster):
        # One machine per model carries that model's joules, so the
        # per-model totals are ``idle[k] + dynamic[k]``.
        finish(cluster)
        first_of_model = {}
        for machine in cluster:
            first_of_model.setdefault(machine.spec.model, machine)
            machine.energy.idle_joules = machine.energy.dynamic_joules = 0.0
        assert len(first_of_model) == len(idle)
        for machine, i, d in zip(first_of_model.values(), idle, dynamic):
            machine.energy.idle_joules, machine.energy.dynamic_joules = i, d

    monkeypatch.setattr(Cluster, "finish_energy_accounting", finish_with_crafted_energy)
    spec = ScenarioSpec(jobs=(puma_job("grep", 0.25),), scheduler="fifo", seed=1)
    metrics = execute_spec(spec).metrics
    by_type = [i + d for i, d in zip(idle, dynamic)]
    assert list(metrics.energy_by_type.values()) == by_type
    assert metrics.idle_energy_joules == _left_fold_only(idle)
    assert metrics.dynamic_energy_joules == _left_fold_only(dynamic)
    assert metrics.total_energy_joules == _left_fold_only(by_type)


def test_utilization_by_type_means_fold_left_to_right(monkeypatch):
    cluster = Cluster(Simulator(), [(DESKTOP, 3), (T420, 1)])
    desktops = [m.machine_id for m in cluster if m.spec.model == DESKTOP.model]
    utilization = dict(zip(desktops, CANCELLING))
    monkeypatch.setattr(
        Machine, "average_utilization",
        lambda self, now=None: utilization.get(self.machine_id, 0.5),
    )
    means = cluster.utilization_by_type()
    assert means[DESKTOP.model] == _left_fold_only(CANCELLING) / 3
    assert means[T420.model] == 0.5


#: Positive values whose left fold drops both 1.0s (``1e16 + 1.0`` rounds
#: back to ``1e16``), where a compensated sum keeps them.
ABSORBED = [1e16, 1.0, 1.0]


def test_tarazu_compute_weights_fold_left_to_right():
    """Tarazu's compute-weight normalizer steers its map quotas."""
    fast = replace(DESKTOP, model="fast", cores=1, cpu_speed=ABSORBED[0])
    slow = replace(T420, model="slow", cores=1, cpu_speed=ABSORBED[1])
    cluster = Cluster(Simulator(), [(fast, 1), (slow, 2)])
    scheduler = TarazuScheduler()
    scheduler.bind(SimpleNamespace(cluster=cluster, tracer=NULL_TRACER))
    total = _left_fold_only(ABSORBED)
    assert scheduler._compute_weights == {
        m.machine_id: m.spec.cpu_speed / total for m in cluster
    }


def test_mean_completion_times_fold_left_to_right():
    """``RunMetrics.mean_jct`` and ``mean_jct_by_class``."""
    results = [
        JobResult(i, f"j{i}", "grep", "small", 0.0, t, t, 1.0)
        for i, t in enumerate(ABSORBED)
    ]
    metrics = RunMetrics("fifo", 0, 0.0, 0.0, {}, 0.0, 0.0, {}, results, None)
    mean = _left_fold_only(ABSORBED) / len(ABSORBED)
    assert metrics.mean_jct() == mean
    assert metrics.mean_jct_by_class() == {("grep", "small"): mean}
