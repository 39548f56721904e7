"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper-msd --seed 3 --seconds 40 --trace 0

Run from the root of a checkout.  Each repeat of the workload runs in a
fresh interpreter (``worker.py``) in a private directory under
``.perfbench_tmp/``; repeats continue until ``--seconds`` are used (at
least :data:`MIN_REPEATS`), and every metric is the median over repeats.

``--trace 0`` prints the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics (:data:`PER_LAYER`): spans recorded around calls into
each layer, from the benchmark's own files (``spans.py``), plus the
tracing overhead.  Layers a workload does not load read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table.  Exit status 2 means the benchmark could not
run at all (for example, no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("paper-msd", "serve-hb", "sweep-grid")
MIN_REPEATS = 3
#: Hard limit on one repeat; a hung repeat is a benchmark error.
REPEAT_TIMEOUT_S = 120.0

#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "tasks_per_cpu_s": "1/s",
    "cpu_us_per_op": "us",
}

_RUNNER_CALLS = ("execute_spec", "build_record", "record_digest", "spec_hash",
                 "cache_get", "cache_put", "spool_append", "spool_scan")
_SERVE_TYPES = ("register", "heartbeat", "report", "submit")
_SCHEDULERS = ("fifo", "fair", "e-ant")
#: Host-time share rows: layer -> span-name prefix.
LAYERS = {
    "simulation": "simulation.",
    "hadoop": "hadoop.",
    "core": "core.",
    "energy": "energy.",
    "metrics": "metrics.",
    "runner": "runner.",
    "serve": "serve.",
    "py.gc": "py.gc",
}

#: name -> unit of every per-layer metric (printed with ``--trace 1``).
PER_LAYER: Dict[str, str] = {
    "simulation.events": "count",
    "simulation.self_s": "s",
    "hadoop.heartbeat.calls": "count",
    "hadoop.heartbeat.self_s": "s",
    "hadoop.launch.calls": "count",
    "hadoop.launch.s": "s",
    "hadoop.task_finished.calls": "count",
    "hadoop.task_finished.self_s": "s",
    "hadoop.task_run.calls": "count",
    "hadoop.task_run.self_s": "s",
    "hadoop.heartbeats_per_task": "ratio",
    "hadoop.attempts_per_task": "ratio",
    "core.select.calls": "count",
    "core.select.s": "s",
    "core.select.assigned_per_call": "ratio",
    **{f"core.select.{s}.{k}": u for s in _SCHEDULERS for k, u in (("calls", "count"), ("s", "s"))},
    "core.slot_fill_frac": "frac",
    "core.no_work_frac": "frac",
    "core.control_interval.calls": "count",
    "core.control_interval.s": "s",
    "core.task_report.calls": "count",
    "core.task_report.s": "s",
    "energy.advance.calls": "count",
    "energy.advance.s": "s",
    "metrics.on_report.calls": "count",
    "metrics.on_report.s": "s",
    "py.gc.gen2_collections": "count",
    "py.gc.s": "s",
    **{f"runner.{c}.{k}": u for c in _RUNNER_CALLS for k, u in (("calls", "count"), ("s", "s"))},
    "runner.spool_bytes": "bytes",
    "runner.sweep_cold_specs_per_s": "1/s",
    "runner.sweep_warm_specs_per_s": "1/s",
    "runner.sweep_resume_specs_per_s": "1/s",
    "serve.decode.calls": "count",
    "serve.decode.s": "s",
    "serve.encode.calls": "count",
    "serve.encode.s": "s",
    **{f"serve.handle.{t}.{k}": u for t in _SERVE_TYPES for k, u in (("calls", "count"), ("s", "s"))},
    "serve.decision.calls": "count",
    "serve.decision.s": "s",
    "serve.rtt_p50_ms": "ms",
    "serve.rtt_p99_ms": "ms",
    "serve.rtt_samples": "count",
    "serve.gen_lateness_p99_ms": "ms",
    "serve.gen_lateness_max_ms": "ms",
    "serve.socket_wait_ms": "ms",
    "workloads.generate.s": "s",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "unattributed.share": "frac",
    "trace.overhead_frac": "frac",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed output check)."""


# ------------------------------------------------------------------ repeats
def run_repeat(root: Path, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Start one worker interpreter and return its result plus ``setup_s``."""
    scratch_root = root / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="r", dir=scratch_root))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(Path(__file__).with_name("worker.py")),
               workload, str(seed), "1" if trace else "0"]
    try:
        spawned = time.time()
        # Own session, so a hung worker is killed with the daemon it started.
        worker = subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = worker.communicate(timeout=REPEAT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise BenchmarkError(f"{workload} repeat exceeded {REPEAT_TIMEOUT_S} s") from None
        if worker.returncode != 0 or not stdout.strip():
            raise BenchmarkError(
                f"{workload} worker exited {worker.returncode}:\n{stderr[-4000:]}"
            )
        repeat = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    repeat["setup_s"] = repeat["ready_wall"] - spawned
    return repeat


def run_repeats(root: Path, workload: str, seed: int, seconds: float,
                trace: bool) -> Tuple[List[dict], List[dict]]:
    """Untraced (and, with ``trace``, alternating traced) repeats in budget."""
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    started = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        begun = time.perf_counter()
        repeat = run_repeat(root, workload, seed, use_trace)
        (traced if use_trace else plain).append(repeat)
        durations.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - started
        enough = len(plain) >= MIN_REPEATS or (trace and traced and len(plain) >= 2)
        if enough and elapsed + statistics.median(durations) > seconds:
            return plain, traced


def check_same_digest(repeats: List[dict]) -> None:
    """Fail every repeat whose output digest differs from the first one's.

    The same seed must give the same outputs, traced or not, so this checks
    seeds that have no pinned digest too.
    """
    first = repeats[0]["digest"]
    for repeat in repeats[1:]:
        if repeat["digest"] != first:
            repeat["failed"] += 1
            repeat["failures"].append(
                f"digest {repeat['digest'][:16]} differs from the first repeat's {first[:16]}"
            )


# ------------------------------------------------------------- aggregation
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(repeats: List[dict]) -> Dict[str, float]:
    attempted = sum(r["attempted"] for r in repeats)
    bad = sum(r["failed"] + r["slo_missed"] for r in repeats)
    return {
        "setup_s": median([r["setup_s"] for r in repeats]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in repeats]),
        "ok_frac": 1.0 - bad / attempted if attempted else 0.0,
        "tasks_per_cpu_s": median(
            [r["tasks"] / r["task_cpu_s"] for r in repeats if r["task_cpu_s"] > 0]
        ),
        "cpu_us_per_op": median(
            [r["op_cpu_s"] / r["ops"] * 1e6 for r in repeats if r["ops"]]
        ),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(workload: str, plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: span statistics averaged over the traced repeats."""
    out = {name: 0.0 for name in PER_LAYER}
    spans = [r["spans"]["spans"] if workload == "serve-hb" else r["spans"] for r in traced]

    def stat(kind: str, name: str) -> float:
        return _mean([s[kind].get(name, 0) for s in spans])

    def prefixed(kind: str, prefix: str) -> float:
        return _mean([sum(v for k, v in s[kind].items() if k.startswith(prefix))
                      for s in spans])

    out["simulation.events"] = stat("items", "simulation.run")
    out["simulation.self_s"] = stat("self_s", "simulation.run")
    for call in ("heartbeat", "task_finished", "task_run"):
        out[f"hadoop.{call}.calls"] = stat("calls", f"hadoop.{call}")
        out[f"hadoop.{call}.self_s"] = stat("self_s", f"hadoop.{call}")
    out["hadoop.launch.calls"] = stat("calls", "hadoop.launch")
    out["hadoop.launch.s"] = stat("total_s", "hadoop.launch")
    out["core.select.calls"] = stat("calls", "core.select")
    out["core.select.s"] = stat("total_s", "core.select")
    if out["core.select.calls"]:
        out["core.select.assigned_per_call"] = (
            stat("items", "core.select") / out["core.select.calls"]
        )
    for scheduler in _SCHEDULERS:
        out[f"core.select.{scheduler}.calls"] = stat("calls", f"core.select.{scheduler}")
        out[f"core.select.{scheduler}.s"] = stat("total_s", f"core.select.{scheduler}")
    for span in ("core.control_interval", "core.task_report", "energy.advance",
                 "metrics.on_report", "serve.decode", "serve.encode", "serve.decision",
                 *(f"serve.handle.{t}" for t in _SERVE_TYPES),
                 *(f"runner.{c}" for c in _RUNNER_CALLS)):
        out[f"{span}.calls"] = stat("calls", span)
        out[f"{span}.s"] = stat("total_s", span)
    out["py.gc.s"] = stat("self_s", "py.gc")
    out["py.gc.gen2_collections"] = _mean([s["gen2_collections"] for s in spans])

    # Ratios from the workload's own counters.
    counters = [r["counters"] for r in traced]
    tasks = _mean([r["tasks"] for r in traced])
    if tasks:
        heartbeats = _mean([c.get("heartbeats", 0) for c in counters]) or out["core.select.calls"]
        out["hadoop.heartbeats_per_task"] = heartbeats / tasks
        attempts = _mean([c.get("attempts", 0) for c in counters]) or out["hadoop.launch.calls"]
        out["hadoop.attempts_per_task"] = attempts / tasks
    slots: Dict[str, float] = {}
    for c in counters:
        for key, value in (c.get("slot_stats") or {}).items():
            slots[key] = slots.get(key, 0) + value
    offered = slots.get("map_offered", 0) + slots.get("reduce_offered", 0)
    if offered:
        out["core.slot_fill_frac"] = (slots["map_filled"] + slots["reduce_filled"]) / offered
        out["core.no_work_frac"] = (slots["map_no_work"] + slots["reduce_no_work"]) / offered

    # Host-time shares of the traced repeats.
    host = _mean([r["spans"]["cpu_s"] if workload == "serve-hb" else r["wall_s"]
                  for r in traced])
    if host:
        attributed = 0.0
        for layer, prefix in LAYERS.items():
            share = prefixed("self_s", prefix) / host
            out[f"{layer}.share"] = share
            attributed += share
        out["unattributed.share"] = 1.0 - attributed

    # Figures only the untraced repeats can give without tracing cost.
    plain_counters = [r["counters"] for r in plain]
    for rate in ("cold", "warm", "resume"):
        key = f"sweep_{rate}_specs_per_s"
        out[f"runner.{key}"] = median([c.get(key, 0.0) for c in plain_counters])
    out["runner.spool_bytes"] = median([c.get("spool_bytes", 0) for c in plain_counters])
    if workload == "serve-hb":
        out["serve.rtt_p50_ms"] = median([c["rtt_due_ms"][0] for c in plain_counters])
        out["serve.rtt_p99_ms"] = median([c["rtt_due_ms"][1] for c in plain_counters])
        out["serve.rtt_samples"] = median([c["rtt_samples"] for c in plain_counters])
        out["serve.gen_lateness_p99_ms"] = median([c["lateness_ms"][0] for c in plain_counters])
        out["serve.gen_lateness_max_ms"] = median([c["lateness_ms"][1] for c in plain_counters])
        # Socket wait: client round trip from send minus the daemon's
        # decode + handle + encode time per heartbeat (traced repeats).
        hb_calls = out["serve.handle.heartbeat.calls"]
        if hb_calls:
            server_ms = 1e3 * (
                out["serve.handle.heartbeat.s"] / hb_calls
                + out["serve.decode.s"] / max(1.0, out["serve.decode.calls"])
                + out["serve.encode.s"] / max(1.0, out["serve.encode.calls"])
            )
            rtt_ms = _mean([c["rtt_sent_mean_ms"] for c in counters])
            out["serve.socket_wait_ms"] = rtt_ms - server_ms
    out["workloads.generate.s"] = median([r["generate_s"] for r in plain])
    cost_plain = median([r["cpu_s"] / r["ops"] for r in plain if r["ops"]])
    cost_traced = median([r["cpu_s"] / r["ops"] for r in traced if r["ops"]])
    if cost_plain:
        out["trace.overhead_frac"] = cost_traced / cost_plain - 1.0
    return out


# ------------------------------------------------------------------- output
def result_line(metrics: Dict[str, float], units: Dict[str, str],
                repeats: List[dict]) -> Dict[str, Any]:
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_table(workload: str, seed: int, repeats: List[dict], metrics: Dict[str, float],
                units: Dict[str, str]) -> None:
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    print(f"# {workload} seed {seed}: {len(repeats)} repeats, "
          f"failed_frac {failed / attempted if attempted else 0.0:.6f}")
    for repeat in repeats:
        print(f"#   digest {repeat['digest'][:16] or '-'}  wall {repeat['wall_s']:.3f} s  "
              f"setup {repeat['setup_s']:.3f} s")
        for line in repeat["failures"]:
            print(f"#   FAILED {line}")
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="E-Ant reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {root / 'src' / 'repro'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    try:
        plain, traced = run_repeats(root, args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    check_same_digest(plain + traced)
    if args.trace:
        metrics, units = per_layer(args.workload, plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    repeats = plain + traced
    print_table(args.workload, args.seed, repeats, metrics, units)
    print(json.dumps(result_line(metrics, units, repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
