"""Round-trip property tests for the scheduler core's wire types.

Every request/response type must survive
``from_wire(json.loads(json.dumps(to_wire(x)))) == x`` — that is the
contract that lets the daemon and its clients speak JSON without a
schema compiler.  Malformed wire dicts must raise :class:`WireError`
(never ``KeyError``/``TypeError``) so the daemon's single error path
holds.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.service import (
    AssignmentResponse,
    HeartbeatRequest,
    TaskDirective,
    TrackerInfo,
    WireError,
)

ids = st.integers(min_value=0, max_value=10_000)
counts = st.integers(min_value=0, max_value=64)
times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_"),
    min_size=1,
    max_size=24,
)

tracker_infos = st.builds(
    TrackerInfo,
    machine_id=ids,
    hostname=names,
    model=names,
    map_slots=counts,
    reduce_slots=counts,
)

heartbeats = st.builds(
    HeartbeatRequest,
    machine_id=ids,
    now=times,
    free_map_slots=counts,
    free_reduce_slots=counts,
    running_maps=counts,
    running_reduces=counts,
)

directives = st.builds(
    TaskDirective,
    task_id=names,
    job_id=ids,
    kind=st.sampled_from(["map", "reduce"]),
    input_mb=sizes,
)

responses = st.builds(
    AssignmentResponse,
    machine_id=ids,
    now=times,
    directives=st.lists(directives, max_size=8).map(tuple),
)


def json_round_trip(wire):
    """What actually crosses the socket: a serialize/parse cycle."""
    return json.loads(json.dumps(wire))


class TestRoundTrips:
    @given(tracker_infos)
    def test_tracker_info(self, info):
        assert TrackerInfo.from_wire(json_round_trip(info.to_wire())) == info

    @given(heartbeats)
    def test_heartbeat_request(self, request):
        assert HeartbeatRequest.from_wire(json_round_trip(request.to_wire())) == request

    @given(responses)
    def test_assignment_response(self, response):
        rebuilt = AssignmentResponse.from_wire(json_round_trip(response.to_wire()))
        assert rebuilt == response

    @given(directives)
    def test_task_directive(self, directive):
        assert TaskDirective.from_wire(json_round_trip(directive.to_wire())) == directive

    @given(heartbeats)
    def test_wire_form_is_json_safe(self, request):
        # No dataclasses, tuples, or floats-as-keys may leak into the wire
        # form; json.dumps is the arbiter.
        encoded = json.dumps(request.to_wire())
        assert isinstance(encoded, str)


class TestValueSemantics:
    """Equal values hash equal (usable as keys) and no field can be rebound."""

    @given(st.one_of(heartbeats, directives, responses))
    def test_hashable(self, value):
        copy = type(value).from_wire(json_round_trip(value.to_wire()))
        assert hash(copy) == hash(value)
        assert len({value, copy}) == 1

    @given(st.one_of(heartbeats, directives, responses))
    def test_immutable(self, value):
        field = next(iter(value.to_wire()))
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_response_directives_default_to_empty(self):
        assert AssignmentResponse(machine_id=0, now=0.0).directives == ()


class TestValidation:
    def test_missing_field_is_wire_error(self):
        with pytest.raises(WireError, match="machine_id"):
            HeartbeatRequest.from_wire({"now": 0.0})

    def test_bool_is_not_a_count(self):
        wire = HeartbeatRequest(
            machine_id=1, now=0.0, free_map_slots=1, free_reduce_slots=1,
            running_maps=0, running_reduces=0,
        ).to_wire()
        wire["free_map_slots"] = True
        with pytest.raises(WireError):
            HeartbeatRequest.from_wire(wire)

    def test_negative_count_rejected(self):
        wire = HeartbeatRequest(
            machine_id=1, now=0.0, free_map_slots=1, free_reduce_slots=1,
            running_maps=0, running_reduces=0,
        ).to_wire()
        wire["free_map_slots"] = -1
        with pytest.raises(WireError):
            HeartbeatRequest.from_wire(wire)

    def test_string_now_rejected(self):
        wire = {"machine_id": 1, "now": "soon", "free_map_slots": 0,
                "free_reduce_slots": 0, "running_maps": 0, "running_reduces": 0}
        with pytest.raises(WireError):
            HeartbeatRequest.from_wire(wire)

    def test_bad_directive_kind_rejected(self):
        wire = {"machine_id": 0, "now": 1.0, "directives": [
            {"task_id": "j1-m-0000", "job_id": 1, "kind": "shuffle", "input_mb": 1.0}
        ]}
        with pytest.raises(WireError):
            AssignmentResponse.from_wire(wire)

    def test_int_now_coerces_to_float(self):
        wire = {"machine_id": 1, "now": 3, "free_map_slots": 0,
                "free_reduce_slots": 0, "running_maps": 0, "running_reduces": 0}
        request = HeartbeatRequest.from_wire(wire)
        assert request.now == 3.0 and isinstance(request.now, float)
