"""The exact bytes a heartbeat gets back.

A client matches replies by ``seq`` and parses the JSON it is sent, so a
reordered key, a changed float rendering or a reworded error is a wire
change.  These tests pin the framed reply of a heartbeat that assigns
nothing, of one that assigns tasks, and of every heartbeat the engine
refuses, byte for byte.
"""

import pytest

from repro.serve import ServeEngine
from repro.serve.protocol import encode


def heartbeat(seq, **fields):
    message = {
        "type": "heartbeat", "machine_id": 0, "now": 3.0,
        "free_map_slots": 4, "free_reduce_slots": 2,
        "running_maps": 0, "running_reduces": 0, "seq": seq,
    }
    message.update(fields)
    return message


@pytest.fixture
def engine():
    """An E-Ant engine with machine 0 (a Desktop: 4 map, 2 reduce slots)."""
    engine = ServeEngine(scheduler="e-ant", seed=3)
    reply = engine.handle({
        "type": "register", "machine_id": 0, "hostname": "desktop-00",
        "model": "Desktop", "map_slots": 4, "reduce_slots": 2, "seq": 1,
    })
    assert encode(reply) == b'{"type":"ok","machine_id":0,"seq":1}\n'
    return engine


class TestReplyBytes:
    def test_heartbeat_without_work(self, engine):
        assert encode(engine.handle(heartbeat(2))) == (
            b'{"type":"assignment","machine_id":0,"now":3.0,"directives":[],"seq":2}\n'
        )

    def test_heartbeat_with_work(self, engine):
        submit = {"type": "submit", "application": "grep", "input_gb": 1.0,
                  "num_reduces": 1, "now": 4.0, "seq": 3}
        assert encode(engine.handle(submit)) == (
            b'{"type":"ok","job_id":0,"num_maps":16,"num_reduces":1,"seq":3}\n'
        )
        assert encode(engine.handle(heartbeat(4, now=6.0))) == (
            b'{"type":"assignment","machine_id":0,"now":6.0,"directives":['
            b'{"task_id":"j0-m-0010","job_id":0,"kind":"map","input_mb":64.0},'
            b'{"task_id":"j0-m-0006","job_id":0,"kind":"map","input_mb":64.0},'
            b'{"task_id":"j0-m-0005","job_id":0,"kind":"map","input_mb":64.0},'
            b'{"task_id":"j0-m-0003","job_id":0,"kind":"map","input_mb":64.0}],"seq":4}\n'
        )

    def test_host_stamped_now_replaces_the_message_clock(self, engine):
        # The daemon passes its own clock; the message's "now" is not read.
        reply = engine.handle(heartbeat(5, now="soon"), now=9.0)
        assert encode(reply) == (
            b'{"type":"assignment","machine_id":0,"now":9.0,"directives":[],"seq":5}\n'
        )


class TestErrorBytes:
    @pytest.mark.parametrize("message,expected", [
        pytest.param(
            {key: value for key, value in heartbeat(6).items() if key != "free_reduce_slots"},
            b'{"type":"error","message":"missing field \'free_reduce_slots\'","seq":6}\n',
            id="missing-field",
        ),
        pytest.param(
            heartbeat(7, free_map_slots=True),
            b'{"type":"error","message":"field \'free_map_slots\' must be int, got bool",'
            b'"seq":7}\n',
            id="bool-count",
        ),
        pytest.param(
            heartbeat(8, running_reduces=-1),
            b'{"type":"error","message":"field \'running_reduces\' must be non-negative, '
            b'got -1","seq":8}\n',
            id="negative-count",
        ),
        pytest.param(
            heartbeat(9, running_maps="2"),
            b'{"type":"error","message":"field \'running_maps\' must be int, got str",'
            b'"seq":9}\n',
            id="string-count",
        ),
        pytest.param(
            heartbeat(10, machine_id=5),
            b'{"type":"error","message":"machine_id 5 has not registered","seq":10}\n',
            id="unregistered-machine",
        ),
        pytest.param(
            heartbeat(11, free_map_slots=5),
            b'{"type":"error","message":"desktop-00 offered more slots than it registered '
            b'(5/4 map, 2/2 reduce)","seq":11}\n',
            id="over-offered-slots",
        ),
        pytest.param(
            # Several faults: the first field in wire order is the one named.
            {key: value for key, value in heartbeat(12, free_map_slots=-3).items()
             if key != "machine_id"},
            b'{"type":"error","message":"missing field \'machine_id\'","seq":12}\n',
            id="first-fault-wins",
        ),
    ])
    def test_refused_heartbeat(self, engine, message, expected):
        assert encode(engine.handle(message)) == expected
        assert engine.errors == 1
        assert engine.core.heartbeats_handled == 0
