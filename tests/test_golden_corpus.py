"""Golden-determinism corpus: replay serialized specs, require exact hashes.

Each file in ``tests/golden/`` pins one scenario — serialized via
``ScenarioSpec.to_json_dict()`` — to the SHA-256
:func:`~repro.runner.record.record_digest` it produced when the corpus
was captured (before the kernel hot-path optimization, which is
contractually bit-identical).  Any drift in simulation behaviour,
however small, fails here with the offending scenario named.

The corpus spans all three paper schedulers plus the baselines, metered
runs, E-Ant config variants, and fault plans (crash/recover, join,
decommission, slowdown, flaky heartbeats) — see
``tests/differential/corpus.py``, which builds the same scenarios
programmatically.

If a behaviour change is *intentional* (a model fix, a new noise
source), regenerate the corpus deliberately::

    PYTHONPATH=src python -m tests.golden.regenerate

and explain the drift in the commit message.
"""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path
from typing import Dict

import pytest

from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.runner.record import build_record, record_digest

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))

#: Where each replayed scenario killed attempts, by golden file stem, kept
#: so the interrupt-coverage test need not run the corpus a second time.
KILLED_SITES: Dict[str, Counter] = {}

INTERRUPT_SITES = (
    ("map", "io"),
    ("map", "cpu"),
    ("reduce", "barrier"),
    ("reduce", "transfer"),
    ("reduce", "sort"),
    ("reduce", "reduce"),
)


def _load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def test_corpus_is_present():
    assert len(GOLDEN_FILES) >= 10, "golden corpus went missing"


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES])
def test_golden_replay(path):
    data = _load(path)
    spec = ScenarioSpec.from_json_dict(data["spec"])
    assert spec.spec_hash() == data["spec_hash"], (
        f"{path.name}: serialized spec no longer round-trips to the same "
        "identity — spec serialization changed"
    )
    result = execute_spec(spec)
    KILLED_SITES[path.stem] = killed_sites(result)
    record = build_record(spec, result, wall_seconds=0.0)
    digest = record_digest(record)
    assert digest == data["expected_digest"], (
        f"{path.name}: simulation output drifted from the golden digest "
        f"({digest[:16]}… != {data['expected_digest'][:16]}…). If this "
        "change is intentional, regenerate tests/golden/ and say why."
    )


def killed_sites(result) -> Counter:
    """(kind, phase) of every attempt of the run that did not succeed.

    An attempt records a phase's duration only once the phase completes,
    so the first unrecorded phase is where it died.  A reduce that died
    before finishing its shuffle was still on the map barrier if the
    job's last map completed after it died.
    """
    sites: Counter = Counter()
    for job in result.jobtracker.jobs.values():
        maps_done_at = job.maps_done_event.value if job.maps_done_event.triggered else float("inf")
        for task in job.maps + job.reduces:
            for attempt in task.attempts:
                if attempt.succeeded or attempt.finish_time is None:
                    continue
                phases = attempt.phases
                if task.is_map:
                    phase = "cpu" if "io" in phases else "io"
                elif "shuffle" not in phases:
                    phase = "barrier" if attempt.finish_time < maps_done_at else "transfer"
                elif "sort" not in phases:
                    phase = "sort"
                else:
                    phase = "reduce"
                sites[(task.kind.value, phase)] += 1
    return sites


def test_corpus_kills_attempts_at_every_interrupt_site():
    """Every place a task attempt can be interrupted is reached.

    A TaskTracker kills an attempt by throwing ``Interrupt`` into it (a
    crash kills every resident attempt; LATE kills a speculative loser).
    A map can die in its io or cpu phase; a reduce while it waits on the
    job's map barrier, in the shuffle transfer, in sort or in reduce.
    The digests pin what happens after a kill only where some scenario
    kills an attempt, so a site that no scenario reaches fails here.
    Sites come from the replays above; a scenario they did not run (a
    ``-k`` selection) is run here.
    """
    for path in GOLDEN_FILES:
        if path.stem not in KILLED_SITES:
            spec = ScenarioSpec.from_json_dict(_load(path)["spec"])
            KILLED_SITES[path.stem] = killed_sites(execute_spec(spec))
    sites = sum(KILLED_SITES.values(), Counter())
    assert set(sites) <= set(INTERRUPT_SITES), sites
    missing = [site for site in INTERRUPT_SITES if not sites[site]]
    assert not missing, f"no golden scenario kills an attempt at {missing}: {dict(sites)}"
    # late-spec-seed21 runs LATE, which always speculates, with no fault plan:
    # the scheduler itself kills at least one losing copy.
    speculative = ScenarioSpec.from_json_dict(_load(GOLDEN_DIR / "late-spec-seed21.json")["spec"])
    assert speculative.faults is None and sum(KILLED_SITES["late-spec-seed21"].values()) >= 1


@dataclasses.dataclass(frozen=True)
class _FakeRecord:
    """Minimal record stand-in for digest-tier unit tests."""

    value: float
    wall_seconds: float = 0.0


class TestDigestTiers:
    """Exact vs float-tolerance projection semantics of record_digest."""

    def test_exact_tier_is_ulp_sensitive_tolerance_tier_is_not(self):
        base = _FakeRecord(value=0.1)
        nudged = _FakeRecord(value=math.nextafter(0.1, 1.0))
        assert record_digest(base) != record_digest(nudged)
        assert record_digest(base, precision=9) == record_digest(nudged, precision=9)

    def test_tolerance_tier_catches_real_divergence(self):
        base = _FakeRecord(value=0.1)
        off = _FakeRecord(value=0.1 * (1.0 + 1e-6))
        assert record_digest(base, precision=9) != record_digest(off, precision=9)

    def test_wall_seconds_excluded_in_both_tiers(self):
        fast = _FakeRecord(value=1.0, wall_seconds=1.0)
        slow = _FakeRecord(value=1.0, wall_seconds=2.0)
        assert record_digest(fast) == record_digest(slow)
        assert record_digest(fast, precision=6) == record_digest(slow, precision=6)


def test_corpus_covers_all_schedulers_and_faults():
    """The corpus must keep exercising every scheduler and a fault plan."""
    specs = [ScenarioSpec.from_json_dict(_load(p)["spec"]) for p in GOLDEN_FILES]
    schedulers = {s.scheduler for s in specs}
    assert {"fair", "tarazu", "e-ant", "fifo", "late"} <= schedulers
    assert any(s.faults is not None for s in specs), "no faulted scenario"
    assert any(s.with_meter for s in specs), "no metered scenario"
