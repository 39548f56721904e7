"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this script once per repeat, with the working directory set
to a private scratch directory and ``src`` on ``PYTHONPATH``; it prints the
repeat's result as one JSON line.  Running every repeat in its own
interpreter means peak RSS, warm caches and the previous run's objects never
carry over into the next measurement.

    python3 perfbench/worker.py WORKLOAD SEED TRACE
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    workdir = Path.cwd()
    spans = None
    if trace and workload != "serve-hb":
        from spans import Spans

        spans = Spans()
    if workload == "paper-msd":
        from workloads import run_des

        repeat = run_des(workload, seed, spans)
    elif workload == "sweep-grid":
        from workloads import run_sweep

        repeat = run_sweep(seed, workdir, spans)
    elif workload == "serve-hb":
        from serve_client import run_serve

        repeat = run_serve(seed, workdir, trace)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    if spans is not None:
        repeat["spans"] = spans.to_json()
    print(json.dumps(repeat))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
