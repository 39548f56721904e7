"""Differential proof: telemetry and profiling are pure observation.

Every scenario here is executed with telemetry off, on, at several
sampling intervals, and under :func:`~repro.observability.profile_layers`;
the :func:`~repro.runner.record.record_digest` values must match
bit-for-bit.  The digest covers every float of the portable record via
``float.hex()`` projections (the telemetry section is excluded by
contract), so a match means the instrumented simulation made exactly the
same decisions as the bare one: no RNG consumed, no energy-window
mutation, no event-ordering perturbation from the sampling process.
"""

import pytest

from repro.observability import TelemetryConfig, profile_layers
from repro.runner.engine import execute_spec
from repro.runner.record import build_record, record_digest

from .corpus import build_corpus

#: A cross-section of the differential corpus: the three paper schedulers
#: plus a faulted run (churn exercises the injector's join path and the
#: per-class rollup growth on joins).
_FULL_CORPUS = dict(build_corpus())
_SUBSET_NAMES = (
    "eant-trio-seed0",
    "fair-duo-seed0",
    "tarazu-trio-seed2",
    "eant-churn-seed6",
)
CORPUS_SUBSET = [(name, _FULL_CORPUS[name]) for name in _SUBSET_NAMES]


def _digest(spec, telemetry=None) -> str:
    result = execute_spec(spec, telemetry=telemetry)
    return record_digest(build_record(spec, result, wall_seconds=0.0))


@pytest.mark.parametrize(
    "name,spec", CORPUS_SUBSET, ids=[name for name, _ in CORPUS_SUBSET]
)
def test_digest_identical_with_telemetry_on_off(name, spec):
    bare = _digest(spec)
    instrumented = _digest(spec, telemetry=True)
    assert bare == instrumented, (
        f"{name}: telemetry=True changed the run's digest — the sink "
        "perturbed simulation state"
    )


@pytest.mark.parametrize(
    "name,spec", CORPUS_SUBSET, ids=[name for name, _ in CORPUS_SUBSET]
)
def test_digest_identical_under_profile_layers(name, spec):
    bare = _digest(spec)
    profiled, profile = profile_layers(_digest, spec, telemetry=True)
    assert profile.total_seconds > 0.0
    assert bare == profiled, (
        f"{name}: running under cProfile changed the run's digest"
    )


@pytest.mark.parametrize(
    "name,spec", CORPUS_SUBSET[:2], ids=[name for name, _ in CORPUS_SUBSET[:2]]
)
@pytest.mark.parametrize("interval", [7.0, 30.0, 300.0])
def test_digest_identical_across_sampling_intervals(name, spec, interval):
    bare = _digest(spec)
    instrumented = _digest(spec, telemetry=interval)
    assert bare == instrumented, (
        f"{name}: telemetry at interval={interval} changed the run's digest"
    )


@pytest.mark.parametrize("name,spec", CORPUS_SUBSET[:1], ids=["first"])
def test_digest_identical_with_ring_wrap(name, spec):
    """Wrapping the sample ring must not feed back into the simulation."""
    bare = _digest(spec)
    wrapped = _digest(spec, telemetry=TelemetryConfig(interval=5.0, max_samples=2))
    assert bare == wrapped
