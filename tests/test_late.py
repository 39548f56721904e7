"""LATE speculative-execution tests."""

import dataclasses
import json
from pathlib import Path

from repro.cluster import ATOM, DESKTOP
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.schedulers import LateScheduler

from .conftest import build_stack, wordcount_spec

GOLDEN_SPEC = Path(__file__).parent / "golden" / "late-spec-seed21.json"


def late_stack():
    # A big straggler source: one Atom next to desktops.
    fleet = [(DESKTOP, 3), (ATOM, 1)]
    return build_stack(scheduler=LateScheduler(), fleet=fleet)


def killed_losers(result):
    """Killed attempts of tasks that another attempt completed."""
    return [
        attempt
        for job in result.jobtracker.jobs.values()
        for task in job.maps + job.reduces
        if task.state.value == "completed"
        for attempt in task.attempts
        if attempt.killed
    ]


class TestLate:
    def test_speculation_spawns_second_attempts(self):
        sim, _cluster, jt, _trackers = late_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        sim.run()
        attempts = [len(t.attempts) for t in job.maps]
        assert max(attempts) >= 2  # at least one task was speculated

    def test_losers_are_killed_not_double_counted(self):
        sim, _cluster, jt, _trackers = late_stack()
        jt.expect_jobs(1)
        job = jt.submit(wordcount_spec(num_maps=24, num_reduces=0))
        sim.run()
        assert job.completed_maps == 24
        assert len(jt.reports) == 24  # one report per task, not per attempt
        killed = [a for t in job.maps for a in t.attempts if a.killed]
        speculated = [t for t in job.maps if len(t.attempts) >= 2]
        assert len(killed) >= 0  # losers either killed or finished after
        assert speculated

    def test_late_is_not_fair_under_another_name(self):
        """A LATE spec with no settings kills speculative losers; Fair kills none."""
        golden = json.loads(GOLDEN_SPEC.read_text())
        jobs = ScenarioSpec.from_json_dict(golden["spec"]).jobs
        spec = ScenarioSpec(jobs=jobs, scheduler="late", seed=21)
        assert spec.spec_hash() == golden["spec_hash"]
        late = execute_spec(spec)
        fair = execute_spec(dataclasses.replace(spec, scheduler="fair"))
        assert len(killed_losers(late)) >= 1
        assert killed_losers(fair) == []
        assert late.metrics.total_energy_joules != fair.metrics.total_energy_joules
