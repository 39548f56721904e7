"""End-to-end tracing tests: determinism, audit fidelity, no-op overhead path.

The tracer must be a pure observer: a traced run and an untraced run with
the same seed produce bit-identical metrics, and two traced runs produce
identical traces.  The decision audit must reconstruct the Eq. 8 assignment
distribution of every E-Ant dispatch.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import run_scenario
from repro.hadoop import HadoopConfig
from repro.observability import NULL_TRACER, EventType, Tracer, read_jsonl
from repro.observability.report import machine_series_from_trace, report_from_trace
from repro.observability.telemetry import COLUMNS
from repro.workloads import puma_job


def _jobs():
    return [
        puma_job("wordcount", 1.0),
        puma_job("terasort", 1.5, submit_time=20.0),
        puma_job("grep", 1.0, submit_time=40.0),
    ]


@pytest.fixture(scope="module")
def traced_result():
    return run_scenario(_jobs(), scheduler="e-ant", seed=11, trace=Tracer())


class TestTracingIsPureObservation:
    def test_traced_metrics_bit_identical_to_untraced(self, traced_result):
        untraced = run_scenario(_jobs(), scheduler="e-ant", seed=11)
        assert traced_result.metrics.makespan == untraced.metrics.makespan
        assert (
            traced_result.metrics.total_energy_joules
            == untraced.metrics.total_energy_joules
        )
        assert (
            traced_result.metrics.energy_by_type == untraced.metrics.energy_by_type
        )

    def test_same_seed_runs_produce_identical_traces(self, traced_result):
        again = run_scenario(_jobs(), scheduler="e-ant", seed=11, trace=Tracer())
        first = [e.to_line_dict() for e in traced_result.tracer.events]
        second = [e.to_line_dict() for e in again.tracer.events]
        assert first == second

    def test_untraced_run_stays_on_the_null_path(self):
        result = run_scenario(_jobs(), scheduler="fair", seed=11)
        assert result.tracer is None
        assert result.registry is None
        assert result.jobtracker.tracer is NULL_TRACER
        assert result.scheduler.tracer is NULL_TRACER
        for tracker in result.jobtracker.trackers.values():
            assert tracker.tracer is NULL_TRACER


class TestTraceContents:
    def test_lifecycle_events_present_and_consistent(self, traced_result):
        tracer = traced_result.tracer
        header = tracer.header()
        assert header is not None
        assert header.data["scheduler"] == "e-ant"
        assert header.data["seed"] == 11
        assert len(tracer.of_type(EventType.JOB_SUBMITTED)) == 3
        assert len(tracer.of_type(EventType.JOB_COMPLETED)) == 3
        launched = tracer.of_type(EventType.TASK_LAUNCHED)
        completed = tracer.of_type(EventType.TASK_COMPLETED)
        assert len(launched) == len(completed) > 0
        assert len(tracer.of_type(EventType.HEARTBEAT)) > 0
        assert len(tracer.of_type(EventType.METRICS_SNAPSHOT)) > 0
        assert len(tracer.of_type(EventType.SIM_START)) == 1
        assert len(tracer.of_type(EventType.SIM_END)) == 1

    def test_snapshot_events_carry_machines_and_fleet_columns(self, traced_result):
        snapshots = traced_result.tracer.of_type(EventType.METRICS_SNAPSHOT)
        for event in snapshots:
            machines = event.data["machines"]
            assert len(machines) == 16
            assert set(machines[0]) == {"id", "host", "model", "util", "power_w", "joules"}
            fleet = event.data["fleet"]
            assert list(fleet) == list(COLUMNS[1:])
            assert fleet["power_watts"] == pytest.approx(sum(m["power_w"] for m in machines))
            assert fleet["energy_joules"] == pytest.approx(sum(m["joules"] for m in machines))
            assert set(event.data["metrics"]) == {"counters", "histograms"}
        # The last snapshot is the completed-workload instant.
        assert snapshots[-1].time == traced_result.metrics.makespan
        assert snapshots[-1].data["fleet"]["active_jobs"] == 0

    def test_events_are_time_ordered_within_the_run(self, traced_result):
        times = [e.time for e in traced_result.tracer.events if e.type != EventType.HEADER]
        assert times == sorted(times)


class TestDecisionAudit:
    def test_every_dispatch_has_an_audit_record(self, traced_result):
        decisions = traced_result.tracer.decisions()
        dispatches = [d for d in decisions if d.chosen_job is not None]
        assert len(dispatches) == len(traced_result.eant.assignment_log)

    def test_probabilities_sum_to_one_and_chosen_is_a_candidate(self, traced_result):
        for decision in traced_result.tracer.decisions():
            total = sum(row.probability for row in decision.candidates)
            assert total == pytest.approx(1.0, abs=1e-9)
            if decision.chosen_job is not None:
                assert decision.probability_of_chosen is not None
                assert decision.probability_of_chosen > 0
            assert decision.path in ("local", "gated", "fallback", "idle")
            assert decision.kind in ("map", "reduce")

    def test_rows_reconstruct_the_eq8_weights(self, traced_result):
        """weight == tau**sharpness * heuristic and probability == weight/sum."""
        sharpness = traced_result.eant.config.selection_sharpness
        for decision in traced_result.tracer.decisions():
            weights = [row.weight for row in decision.candidates]
            total = sum(weights)
            if total <= 0:
                continue
            for row in decision.candidates:
                assert row.probability == pytest.approx(row.weight / total, rel=1e-12)
                if decision.kind == "map":
                    heuristic = row.weight / row.tau**sharpness
                    assert heuristic >= 0  # tau decomposition is well-formed

    def test_pheromone_updates_traced_each_control_interval(self):
        # A short control interval forces at least one mid-run update.
        result = run_scenario(
            _jobs(),
            scheduler="e-ant",
            seed=11,
            hadoop=HadoopConfig(control_interval=45.0),
            trace=Tracer(),
        )
        updates = result.tracer.of_type(EventType.PHEROMONE_UPDATE)
        assert updates
        for event in updates:
            assert event.data["kind"] in ("map", "reduce")
            assert isinstance(event.data["tau"], dict) and event.data["tau"]


class TestTraceReplay:
    def test_report_from_trace_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_scenario(_jobs(), scheduler="e-ant", seed=11, trace=path)
        events = read_jsonl(path)
        series = machine_series_from_trace(events)
        assert len(series) == 16  # the paper fleet
        report = report_from_trace(events)
        assert "per-machine utilization/power" in report
        assert "cluster" in report

    def test_pre_fleet_snapshot_events_still_render(self, tmp_path, capsys):
        """Traces written before snapshots carried a ``fleet`` section."""
        machine = {"id": 0, "host": "atom-00", "model": "Atom"}
        gauges = {"active_jobs": 1.0, "pending_maps": 3.0, "pending_reduces": 1.0}
        lines = [
            {"t": 0.0, "type": "trace.header", "scheduler": "fair", "seed": 1},
        ] + [
            {
                "t": t,
                "type": "metrics.snapshot",
                "machines": [dict(machine, util=util, power_w=power, joules=joules)],
                "metrics": {"counters": {}, "gauges": gauges, "histograms": {}},
            }
            for t, util, power, joules in ((30.0, 0.5, 20.0, 540.0), (60.0, 0.0, 18.0, 1080.0))
        ]
        path = tmp_path / "old.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        events = read_jsonl(path)
        series = machine_series_from_trace(events)
        assert series[0].hostname == "atom-00"
        assert series[0].power_watts == (20.0, 18.0)
        assert "per-machine utilization/power" in report_from_trace(events)
        assert main(["report", str(path)]) == 0
        assert "atom-00" in capsys.readouterr().out

    def test_report_requires_snapshots(self):
        with pytest.raises(ValueError):
            machine_series_from_trace([])


class TestCliTraceFlow:
    def test_run_trace_report_commands(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert main(
            ["run", "--scheduler", "e-ant", "--jobs", "wordcount:1",
             "--seed", "3", "--trace-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "# scheduler=e-ant seed=3" in out
        assert path.exists()

        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler=e-ant" in out
        assert "scheduler.decision" in out

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "avg" in out and "W" in out

    def test_trace_command_rejects_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_compare_echoes_run_config(self, capsys):
        # Just the header line matters; keep the workload tiny.
        from repro.cli import _print_run_config

        _print_run_config(schedulers="fair,tarazu,e-ant", seed=3, jobs=2)
        assert capsys.readouterr().out == "# schedulers=fair,tarazu,e-ant seed=3 jobs=2\n"


class TestApplicationOnReports:
    def test_collector_uses_explicit_application(self):
        result = run_scenario(_jobs(), scheduler="fair", seed=2)
        apps = {app for (_, app, _) in result.metrics.collector.completed}
        assert apps == {"wordcount", "terasort", "grep"}

    def test_report_carries_application(self, traced_result):
        reports = traced_result.eant.analyzer  # analyzer consumed them; check via collector
        collector = traced_result.metrics.collector
        assert collector.reports_seen > 0
        assert all(app for (_, app, _) in collector.completed)
