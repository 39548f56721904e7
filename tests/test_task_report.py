"""``TaskReport`` keeps the record shape the schedulers and the wire read.

It is a NamedTuple (one is built per finished attempt): the same fields in
the same order, the ``application`` default, read-only fields, the
``duration`` property, no per-instance ``__dict__``, and the same
``task_report_to_wire`` output as before.
"""

import dataclasses
import pickle

import pytest

from repro.core.service import task_report_to_wire
from repro.energy import UtilizationSample
from repro.hadoop import TaskKind, TaskReport
from repro.runner import ScenarioSpec
from repro.runner.engine import execute_spec
from repro.workloads import puma_job

FIELDS = (
    "job_id",
    "job_name",
    "pool",
    "resource_signature",
    "task_id",
    "attempt_id",
    "kind",
    "machine_id",
    "start_time",
    "finish_time",
    "avg_utilization",
    "samples",
    "input_mb",
    "local",
    "phases",
    "application",
)


def make_report(**overrides) -> TaskReport:
    fields = dict(
        job_id=3,
        job_name="terasort-1",
        pool="default",
        resource_signature="cpu1:shuffle3",
        task_id="j3-m-0017",
        attempt_id="attempt_j3-m-0017_0",
        kind=TaskKind.MAP,
        machine_id=5,
        start_time=12.5,
        finish_time=40.0,
        avg_utilization=0.125,
        samples=(UtilizationSample(0.1, 3.0), UtilizationSample(0.25, 1.5)),
        input_mb=64.0,
        local=False,
        phases={"io": 7.5, "cpu": 20.0},
    )
    fields.update(overrides)
    return TaskReport(**fields)


def test_fields_and_order():
    assert TaskReport._fields == FIELDS
    report = make_report(application="terasort")
    assert tuple(report) == tuple(getattr(report, name) for name in FIELDS)


def test_application_defaults_empty():
    assert make_report().application == ""
    assert TaskReport._field_defaults == {"application": ""}


def test_fields_are_read_only_and_there_is_no_instance_dict():
    report = make_report()
    with pytest.raises(AttributeError):
        report.machine_id = 7
    with pytest.raises(AttributeError):
        report.extra = 1
    assert not hasattr(report, "__dict__")
    assert report._replace(machine_id=7).machine_id == 7
    assert report.machine_id == 5


def test_duration():
    assert make_report().duration == 40.0 - 12.5


def test_equality_and_pickle_round_trip():
    report = make_report(application="terasort")
    assert report == make_report(application="terasort")
    assert report != make_report(application="grep")
    assert pickle.loads(pickle.dumps(report)) == report


def test_dataclass_helpers_no_longer_apply():
    assert not dataclasses.is_dataclass(make_report())
    with pytest.raises(TypeError):
        dataclasses.replace(make_report(), machine_id=1)


def test_wire_output_unchanged():
    assert task_report_to_wire(make_report(application="terasort")) == {
        "task_id": "j3-m-0017",
        "attempt_id": "attempt_j3-m-0017_0",
        "kind": "map",
        "machine_id": 5,
        "start_time": 12.5,
        "finish_time": 40.0,
        "avg_utilization": 0.125,
        "local": False,
        "samples": [[0.1, 3.0], [0.25, 1.5]],
        "phases": {"io": 7.5, "cpu": 20.0},
    }


def test_attempt_reports_carry_the_attempt_and_job():
    spec = ScenarioSpec(jobs=(puma_job("terasort", 0.5),), scheduler="fifo", seed=4)
    result = execute_spec(spec)
    jobtracker = result.jobtracker
    assert jobtracker.reports
    for report in jobtracker.reports:
        job = jobtracker.jobs[report.job_id]
        task = next(t for t in job.maps + job.reduces if t.task_id == report.task_id)
        attempt = next(a for a in task.attempts if a.attempt_id == report.attempt_id)
        assert type(report) is TaskReport
        assert report == TaskReport(
            job_id=job.job_id,
            job_name=job.name,
            pool=job.spec.pool,
            resource_signature=job.profile.resource_signature(),
            task_id=task.task_id,
            attempt_id=f"attempt_{task.task_id}_{attempt.attempt_number}",
            kind=task.kind,
            machine_id=attempt.machine_id,
            start_time=attempt.start_time,
            finish_time=attempt.finish_time,
            avg_utilization=attempt.avg_utilization,
            samples=tuple(attempt.samples),
            input_mb=task.input_mb,
            local=attempt.local,
            phases=dict(attempt.phases),
            application=job.profile.name,
        )
        # Copies, not views of the attempt's mutable state.
        assert report.phases is not attempt.phases
        assert isinstance(report.samples, tuple)
