"""Newline-delimited JSON framing for the serve daemon and its clients.

One message per line, UTF-8, compact separators.  Every request may carry
an optional ``seq`` field which the engine echoes into the reply — that is
how pipelining clients (the load generator) match responses to requests
without any ordering assumption beyond per-connection FIFO.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..core.service import WireError

__all__ = ["encode", "decode", "MAX_LINE_BYTES"]

#: Upper bound on one framed message; protects the daemon's line reader
#: from unbounded buffering on a garbage or hostile stream.  Generous
#: enough for a full-job submit with thousands of per-map input sizes.
MAX_LINE_BYTES = 4 * 1024 * 1024


#: One shared encoder: ``json.dumps(..., separators=...)`` builds a new
#: ``JSONEncoder`` on every call, and the daemon encodes every reply.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(message: Dict[str, Any]) -> bytes:
    """Frame one message: compact JSON plus the terminating newline."""
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one framed line into a message dict.

    Raises :class:`~repro.core.service.WireError` (never a bare JSON
    error) so the daemon's one error path covers malformed framing and
    malformed content alike.
    """
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"malformed JSON line: {exc}") from None
    except UnicodeDecodeError as exc:
        raise WireError(f"malformed JSON line: not UTF-8 ({exc.reason})") from None
    except RecursionError:
        raise WireError("malformed JSON line: nested too deeply") from None
    if not isinstance(message, dict):
        raise WireError("each line must be a JSON object")
    return message
