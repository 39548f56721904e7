"""ServeEngine message-handling semantics (no sockets, no asyncio)."""

import json
import threading

import pytest

from repro.serve import ServeEngine


def make_engine(**kwargs):
    kwargs.setdefault("scheduler", "e-ant")
    kwargs.setdefault("seed", 3)
    return ServeEngine(**kwargs)


def register(engine, machine_id=0, slots=(2, 2)):
    return engine.handle({
        "type": "register",
        "machine_id": machine_id,
        "hostname": f"node-{machine_id:02d}",
        "model": "atom",
        "map_slots": slots[0],
        "reduce_slots": slots[1],
    })


class TestErrors:
    def test_unknown_type_is_error_not_crash(self):
        engine = make_engine()
        reply = engine.handle({"type": "frobnicate"})
        assert reply["type"] == "error"
        assert "frobnicate" in reply["message"]
        assert engine.errors == 1

    def test_missing_type_is_error(self):
        reply = make_engine().handle({"machine_id": 0})
        assert reply["type"] == "error"

    def test_seq_echoes_on_errors_too(self):
        reply = make_engine().handle({"type": "nope", "seq": 42})
        assert reply["seq"] == 42

    def test_register_outside_fleet_rejected(self):
        engine = make_engine()  # paper fleet: machine ids 0..15
        reply = register(engine, machine_id=99)
        assert reply["type"] == "error"
        assert "99" in reply["message"]

    def test_heartbeat_before_register_rejected(self):
        reply = make_engine().handle({
            "type": "heartbeat", "machine_id": 0, "now": 0.0,
            "free_map_slots": 2, "free_reduce_slots": 2,
            "running_maps": 0, "running_reduces": 0,
        })
        assert reply["type"] == "error"
        assert "registered" in reply["message"]

    def test_heartbeat_offering_unregistered_slots_rejected(self):
        engine = make_engine()
        assert register(engine, slots=(2, 2))["type"] == "ok"
        reply = engine.handle({
            "type": "heartbeat", "machine_id": 0, "now": 1.0,
            "free_map_slots": 5, "free_reduce_slots": 0,
            "running_maps": 0, "running_reduces": 0,
        })
        assert reply["type"] == "error"

    def test_report_for_unknown_task_rejected(self):
        engine = make_engine()
        reply = engine.handle({
            "type": "report", "task_id": "job0-m-0000", "attempt_id": "x",
            "kind": "map", "machine_id": 0, "start_time": 0.0,
            "finish_time": 1.0, "avg_utilization": 0.5, "local": True,
            "samples": [[0.5, 1.0]], "phases": {"cpu": 1.0},
        })
        assert reply["type"] == "error"


class TestSession:
    """One full assign/report/complete conversation against the engine."""

    def test_full_session(self):
        engine = make_engine(scheduler="fifo")
        for machine_id in range(4):
            assert register(engine, machine_id)["type"] == "ok"

        submitted = engine.handle({
            "type": "submit", "application": "grep",
            "input_mb": 256.0, "num_reduces": 1, "seq": 7,
        })
        assert submitted["type"] == "ok"
        assert submitted["seq"] == 7
        assert submitted["num_maps"] >= 1

        # Heartbeats pick the queued maps up, at most free_map_slots each.
        assigned = {}
        now = 1.0
        while len(assigned) < submitted["num_maps"] and now < 100.0:
            for machine_id in range(4):
                reply = engine.handle({
                    "type": "heartbeat", "machine_id": machine_id, "now": now,
                    "free_map_slots": 2, "free_reduce_slots": 1,
                    "running_maps": 0, "running_reduces": 0,
                })
                assert reply["type"] == "assignment"
                assert len([d for d in reply["directives"] if d["kind"] == "map"]) <= 2
                for directive in reply["directives"]:
                    assigned[directive["task_id"]] = (machine_id, directive, now)
            now += 3.0

        maps = {t: v for t, v in assigned.items() if v[1]["kind"] == "map"}
        assert len(maps) == submitted["num_maps"]

        # Reporting a completion with the wrong attempt id is refused...
        task_id, (machine_id, directive, started) = next(iter(maps.items()))
        base_report = {
            "type": "report", "task_id": task_id,
            "attempt_id": f"attempt_{task_id}_9", "kind": directive["kind"],
            "machine_id": machine_id, "start_time": started,
            "finish_time": started + 10.0, "avg_utilization": 0.6,
            "local": True, "samples": [[0.6, 10.0]], "phases": {"cpu": 10.0},
        }
        assert engine.handle(base_report)["type"] == "error"

        # ... while the real attempt id closes the task.
        for task_id, (machine_id, directive, started) in maps.items():
            reply = engine.handle({
                **base_report, "task_id": task_id, "machine_id": machine_id,
                "attempt_id": f"attempt_{task_id}_0", "start_time": started,
                "finish_time": started + 10.0,
            })
            assert reply == {"type": "ok", "task_id": task_id, "duplicate": False}

        # A second report for a finished task no longer resolves.
        assert engine.handle({
            **base_report, "attempt_id": f"attempt_{task_id}_0",
        })["type"] == "error"

        stats = engine.stats()
        assert stats["reports"] == len(maps)
        assert stats["assignments"] == len(assigned)
        assert stats["trackers"] == 4

    def test_speculated_task_takes_the_first_report_of_either_attempt(self):
        # LATE copies a straggling map onto an idle fast machine; with no
        # kill message on the wire, both attempts eventually report.
        engine = make_engine(scheduler="late", seed=1)
        specs = {m.machine_id: m.spec for m in engine.cluster}
        for machine_id, spec in specs.items():
            assert register(engine, machine_id, (spec.map_slots, spec.reduce_slots))["type"] == "ok"
        assert engine.handle({
            "type": "submit", "application": "grep", "input_mb": 256.0, "num_reduces": 0,
        })["num_maps"] == 4
        running = {}  # task id -> machines holding an attempt, in attempt order

        def heartbeat_all(now):
            for machine_id, spec in specs.items():
                busy = sum(machine_id in held for held in running.values())
                reply = engine.handle({
                    "type": "heartbeat", "machine_id": machine_id, "now": now,
                    "free_map_slots": spec.map_slots - busy,
                    "free_reduce_slots": spec.reduce_slots,
                    "running_maps": busy, "running_reduces": 0,
                })
                for directive in reply["directives"]:
                    running.setdefault(directive["task_id"], []).append(machine_id)

        def report(task_id, attempt_number, finish_time):
            return engine.handle({
                "type": "report", "task_id": task_id,
                "attempt_id": f"attempt_{task_id}_{attempt_number}", "kind": "map",
                "machine_id": running[task_id][attempt_number], "start_time": 1.0,
                "finish_time": finish_time, "avg_utilization": 0.6, "local": True,
                "samples": [[0.6, finish_time - 1.0]], "phases": {"cpu": finish_time - 1.0},
                "now": finish_time,
            })

        heartbeat_all(1.0)
        assert running == {f"j0-m-{i:04d}": [0] for i in range(4)}
        assert report("j0-m-0003", 0, 5.0)["duplicate"] is False
        heartbeat_all(100.0)  # j0-m-0000 now overruns the job's mean map time
        assert running["j0-m-0000"] == [0, 1]

        assert report("j0-m-0000", 0, 101.0) == {
            "type": "ok", "task_id": "j0-m-0000", "duplicate": False,
        }
        assert report("j0-m-0000", 1, 102.0) == {
            "type": "ok", "task_id": "j0-m-0000", "duplicate": True,
        }
        # Each attempt reports once; a repeat is still an error.
        for attempt_number in (0, 1):
            assert report("j0-m-0000", attempt_number, 103.0)["type"] == "error"
        assert engine.stats()["reports"] == 2

    def test_tick_advances_control_interval(self):
        engine = make_engine()
        interval = engine.config.control_interval
        assert engine.handle({"type": "tick", "now": interval * 2.5})[
            "interval_index"
        ] == 2
        assert engine.core.interval_index == 2

    @pytest.mark.parametrize("scheduler, ticks", [("e-ant", [300.0, 600.0]), ("fair", [])])
    def test_heartbeats_alone_fire_due_intervals_at_their_deadlines(self, scheduler, ticks):
        # No tick message: the JobTracker's own control loop fires each
        # interval as a message carries the clock past its deadline, on
        # the DES's accumulated floats.  Only E-Ant starts that loop.
        engine = make_engine(scheduler=scheduler)
        register(engine)
        tape = []
        engine.core.set_tap(tape.append)
        for now in (10.0, 310.0, 650.0):
            reply = engine.handle({
                "type": "heartbeat", "machine_id": 0, "now": now,
                "free_map_slots": 2, "free_reduce_slots": 2,
                "running_maps": 0, "running_reduces": 0,
            })
            assert reply["type"] == "assignment"
        assert engine.core.interval_index == len(ticks)
        assert engine.stats()["control_intervals"] == len(ticks)
        assert [r["now"] for r in tape if r["type"] == "tick"] == ticks

    def test_clock_never_moves_backwards(self):
        engine = make_engine()
        register(engine)
        engine.handle({
            "type": "heartbeat", "machine_id": 0, "now": 50.0,
            "free_map_slots": 0, "free_reduce_slots": 0,
            "running_maps": 2, "running_reduces": 2,
        })
        assert engine.now == 50.0
        engine.handle({
            "type": "heartbeat", "machine_id": 0, "now": 10.0,
            "free_map_slots": 0, "free_reduce_slots": 0,
            "running_maps": 2, "running_reduces": 2,
        })
        assert engine.now == 50.0

    def test_submit_needs_a_size(self):
        reply = make_engine().handle({"type": "submit", "application": "grep"})
        assert reply["type"] == "error"
        assert "input_gb" in reply["message"]

    def test_stats_shape(self):
        stats = make_engine().stats()
        for key in (
            "scheduler", "heartbeats", "assignments", "reports",
            "control_intervals", "errors", "decision_latency_ms",
        ):
            assert key in stats
        assert stats["decision_latency_ms"]["count"] == 0
        assert stats["decision_latency_ms"]["p99"] == 0.0

    def test_shutdown_returns_final_stats(self):
        engine = make_engine()
        stats = engine.shutdown()
        assert engine.jobtracker.is_shutdown
        assert stats["errors"] == 0


def handle_within(engine, message, timeout=10.0):
    """``engine.handle(message)``, failing the test if it does not return."""
    replies = []
    worker = threading.Thread(
        target=lambda: replies.append(engine.handle(message)), daemon=True
    )
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"handle() did not return for {message!r}"
    return replies[0]


class TestNonFiniteWire:
    """``json.loads`` accepts ``NaN``/``Infinity``: a non-finite clock or
    size must come back as an error reply, never hang or raise."""

    HEARTBEAT = (
        '"machine_id": 0, "free_map_slots": 2, "free_reduce_slots": 2, '
        '"running_maps": 0, "running_reduces": 0'
    )

    @pytest.mark.parametrize("now", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("mtype", ["tick", "heartbeat"])
    def test_non_finite_now_is_an_error(self, mtype, now):
        engine = make_engine()  # trust_wire_now=True, as in replay
        assert register(engine)["type"] == "ok"
        message = json.loads(
            f'{{"type": "{mtype}", "now": {now}, "seq": 11, {self.HEARTBEAT}}}'
        )
        reply = handle_within(engine, message)
        assert reply["type"] == "error"
        assert reply["seq"] == 11
        assert "now" in reply["message"]
        assert engine.errors == 1
        # The engine still serves a well-formed clock afterwards.
        assert handle_within(engine, {"type": "tick", "now": 1.0})["type"] == "ok"

    def test_non_finite_sample_is_an_error(self):
        engine = make_engine()
        reply = handle_within(engine, json.loads(
            '{"type": "report", "task_id": "job0-m-0000", "attempt_id": "x", '
            '"kind": "map", "machine_id": 0, "start_time": 0.0, '
            '"finish_time": 1.0, "avg_utilization": 0.5, "local": true, '
            '"samples": [[NaN, 1.0]], "phases": {"cpu": 1.0}, "seq": 3}'
        ))
        assert reply["type"] == "error" and reply["seq"] == 3
        assert "samples" in reply["message"]


class TestBadSubmitSizes:
    """Every malformed ``submit`` size is an error reply with ``seq``."""

    @pytest.mark.parametrize(
        "size",
        [
            '"input_gb": "abc"',
            '"input_mb": Infinity',
            '"input_mb": NaN',
            '"input_gb": -Infinity',
            '"input_mb": 1e400',
        ],
    )
    def test_bad_size_is_an_error(self, size):
        engine = make_engine()
        message = json.loads(f'{{"type": "submit", "application": "grep", {size}, "seq": 5}}')
        reply = handle_within(engine, message)
        assert reply["type"] == "error"
        assert reply["seq"] == 5
        assert engine.errors == 1


class TestHostileReports:
    """A report must come from the attempt's machine and carry
    non-negative utilizations and durations; otherwise it is an error
    reply and the task keeps running."""

    @staticmethod
    def assigned_map(engine):
        for machine_id in (0, 9):
            assert register(engine, machine_id)["type"] == "ok"
        assert engine.handle({
            "type": "submit", "application": "grep", "input_mb": 64.0,
        })["type"] == "ok"
        reply = engine.handle({
            "type": "heartbeat", "machine_id": 0, "now": 1.0,
            "free_map_slots": 2, "free_reduce_slots": 0,
            "running_maps": 0, "running_reduces": 0,
        })
        task_id = reply["directives"][0]["task_id"]
        return task_id, {
            "type": "report", "task_id": task_id,
            "attempt_id": f"attempt_{task_id}_0", "kind": "map",
            "machine_id": 0, "start_time": 1.0, "finish_time": 11.0,
            "avg_utilization": 0.6, "local": True,
            "samples": [[0.6, 10.0]], "phases": {"cpu": 10.0},
        }

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("machine_id", 9, "machine 9"),
            ("avg_utilization", -0.5, "avg_utilization"),
            ("samples", [[-2.0, 10.0]], "samples"),
            ("samples", [[0.6, -10.0]], "samples"),
        ],
        ids=["foreign-machine", "negative-avg", "negative-util", "negative-duration"],
    )
    def test_hostile_report_is_refused(self, field, value, needle):
        engine = make_engine(scheduler="fifo")
        task_id, report = self.assigned_map(engine)
        reply = engine.handle({**report, field: value, "seq": 4})
        assert reply["type"] == "error" and reply["seq"] == 4
        assert needle in reply["message"]
        assert engine.core.resolve(task_id).state.value == "running"
        assert engine.stats()["reports"] == 0
        # The honest report for the same attempt is still accepted.
        assert engine.handle(report) == {
            "type": "ok", "task_id": task_id, "duplicate": False,
        }
