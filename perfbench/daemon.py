"""Serve-daemon entry point for the ``serve-hb`` workload.

Runs ``repro``'s ``ServeDaemon`` (paper fleet, E-Ant) on a UNIX socket until
a client sends ``{"type": "shutdown"}``.  With ``--spans-out`` it first
wraps the daemon's wire codec, message handlers and decision call (see
``spans.install_serve``) and, at shutdown, writes the recorded spans plus
the process CPU time they cover to that JSON file.

    python3 perfbench/daemon.py --socket hb.sock --seed 3 [--spans-out s.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

#: Simulated seconds per wall second: a 300 s control interval every 0.5 s.
TIME_SCALE = 600.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from repro.serve.daemon import ServeDaemon
    from repro.serve.engine import ServeEngine

    spans = None
    if args.spans_out:
        from spans import Spans, install_serve

        spans = Spans()
        install_serve(spans)
    engine = ServeEngine(scheduler="e-ant", seed=args.seed, trust_wire_now=False)
    daemon = ServeDaemon(engine, path=args.socket, time_scale=TIME_SCALE)
    cpu0 = time.process_time()
    asyncio.run(daemon.run(install_signals=True))
    if spans is not None:
        spans.remove()
        payload = {
            "spans": spans.to_json(),
            "cpu_s": time.process_time() - cpu0,
            "slot_stats": dict(getattr(engine.core.scheduler, "slot_stats", {})),
        }
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
