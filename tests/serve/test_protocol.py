"""The NDJSON codec: byte-stable encoding and a single decode error type."""

import json

import pytest

from repro.core.service import WireError
from repro.serve.protocol import decode, encode


@pytest.mark.parametrize(
    "message",
    [
        {"type": "submit", "application": "wörd-count ✓", "name": "日本"},
        {"type": "heartbeat", "now": float("nan"), "x": float("inf"), "y": -float("inf")},
        {"type": "report", "samples": [[0.5, 1.25], [1.0, {"a": [None, True, False]}]],
         "phases": {"cpu": 3.0, "nested": {"deeper": {"deepest": [1, 2, 3]}}}},
        {"type": "stats", "seq": 2**70, "empty": {}, "list": []},
    ],
)
def test_encode_bytes_match_the_json_dumps_expression(message):
    expected = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    assert encode(message) == expected


def test_decode_round_trips_encode():
    message = {"type": "stats", "seq": 3, "name": "wörd"}
    assert decode(encode(message).strip()) == message


@pytest.mark.parametrize(
    "line",
    [
        b"not json",
        b"[1, 2]",
        b"[" * 200_000,
        b'{"type": "' + b"\xff\xfe" + b'"}',
        b'{"type": "stats", "name": "\xc3"}',
    ],
    ids=["garbage", "not-an-object", "deep-nesting", "bad-utf8", "truncated-utf8"],
)
def test_decode_raises_only_wire_errors(line):
    with pytest.raises(WireError):
        decode(line)
