"""``repro serve``: the transport layer over :class:`~repro.core.service.LocalSchedulerCore`.

The package splits along the protocol seam the core API established:

- :mod:`~repro.serve.engine` — :class:`ServeEngine`, a synchronous
  message-in/reply-out host of one scheduler core (no sockets; tests
  drive it directly).
- :mod:`~repro.serve.daemon` — :class:`ServeDaemon`, the asyncio NDJSON
  front end over TCP or UNIX-domain sockets.
- :mod:`~repro.serve.protocol` — line framing (``encode``/``decode``).
- :mod:`~repro.serve.loadgen` — :class:`LoadGenerator`, open-loop
  synthetic heartbeat traffic for smoke tests and benchmarks.
- :mod:`~repro.serve.bench` — :func:`run_serve_benchmark`, the
  daemon-in-a-subprocess load run behind ``repro serve --loadgen`` and
  the ``BENCH_serve.json`` gate.
"""

from .bench import run_serve_benchmark
from .daemon import ServeDaemon
from .engine import ServeEngine, job_from_wire
from .loadgen import LoadGenerator, LoadgenStats, fleet_tracker_infos
from .protocol import MAX_LINE_BYTES, decode, encode

__all__ = [
    "ServeEngine",
    "ServeDaemon",
    "LoadGenerator",
    "LoadgenStats",
    "fleet_tracker_infos",
    "run_serve_benchmark",
    "job_from_wire",
    "encode",
    "decode",
    "MAX_LINE_BYTES",
]
