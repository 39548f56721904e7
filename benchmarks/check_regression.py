"""Throughput regression gates against ``BENCH_kernel.json``.

Wall-clock numbers do not transfer between machines, so the committed
baselines store *ratios*: how much slower the retained naive reference
(:func:`repro.core.reference.reference_mode`) runs each benchmark than
the optimized hot path, measured in the same process.  If an
optimization is accidentally reverted or pessimized, the optimized time
rises toward the reference time and the ratio collapses toward 1.0 —
independent of how fast the host happens to be.

Three gates run:

* ``reference_ratio`` — the 20k-event DES kernel microbenchmark
  (dispatch loop, heap, timeout construction).
* ``large_fleet_ratio`` — an end-to-end E-Ant run on a procedural
  fleet, which additionally exercises the vectorized colony scorer
  (``reference_mode`` swaps the scalar per-candidate scoring back in).
* ``telemetry_overhead`` (from ``BENCH_telemetry.json``) — a paired
  telemetry-on vs telemetry-off run of the large-fleet scenario; the
  on/off wall-clock ratio must stay **below** the committed budget
  (1.05x), bounding what the columnar sampler and its per-heartbeat
  latency buffering may cost the hot paths.
* ``serve_throughput`` (from ``BENCH_serve.json``) — the ``repro serve``
  daemon in a subprocess under the open-loop load generator; the
  achieved heartbeat rate must stay above ``min_achieved_fraction`` of
  the offered rate with zero errors on either side, and the server's
  decision-latency p99 must stay under a loose millisecond budget.

The speedup gates fail when their measured ratio drops below
``expected_ratio * fail_below_fraction`` (0.8 — i.e. a >20 % relative
throughput regression); the telemetry gate fails when its ratio rises
above ``budget_ratio``.  Run locally or in CI::

    PYTHONPATH=src python benchmarks/check_regression.py

Exit status 0 on pass, 1 on regression.  After a *deliberate* hot-path
change, refresh the baseline by re-measuring (the script prints the
observed ratios) and editing ``BENCH_kernel.json`` /
``BENCH_telemetry.json`` in the same commit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
TELEMETRY_BASELINE_PATH = REPO_ROOT / "BENCH_telemetry.json"
SERVE_BASELINE_PATH = REPO_ROOT / "BENCH_serve.json"


def _run_events(n: int) -> float:
    from repro.simulation import Simulator

    sim = Simulator()

    def chain():
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.process(chain())
    sim.run()
    return sim.now


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _check_ratio(name: str, detail: str, optimized: float, reference: float,
                 expected: float, fraction: float) -> bool:
    ratio = reference / optimized
    threshold = expected * fraction
    print(
        f"{name} {detail}: optimized {optimized * 1e3:.2f} ms, "
        f"reference {reference * 1e3:.2f} ms, ratio {ratio:.2f}x "
        f"(baseline {expected:.2f}x, threshold {threshold:.2f}x)"
    )
    if ratio < threshold:
        print(
            f"FAIL: {name} speedup regressed >20% against BENCH_kernel.json — "
            "either fix the hot path or deliberately refresh the baseline."
        )
        return False
    print(f"PASS: {name} throughput within baseline.")
    return True


def _kernel_gate(baseline: dict, reps: int) -> bool:
    from repro.core.reference import reference_mode

    events = int(baseline["events"])
    _run_events(events)  # warm imports and allocator before timing
    optimized = _best_of(lambda: _run_events(events), reps)
    with reference_mode():
        reference = _best_of(lambda: _run_events(events), reps)
    # Second optimized pass guards against the machine speeding up/slowing
    # down mid-measurement skewing the ratio in either direction.
    optimized = min(optimized, _best_of(lambda: _run_events(events), reps))
    return _check_ratio(
        "kernel", f"{events} events", optimized, reference,
        float(baseline["expected_ratio"]), float(baseline["fail_below_fraction"]),
    )


def _large_fleet_gate(baseline: dict, reps: int) -> bool:
    from repro.core.reference import reference_mode
    from repro.experiments.scenarios import large_fleet_spec
    from repro.runner.engine import execute_spec

    spec = large_fleet_spec(
        n_nodes=int(baseline["n_nodes"]),
        target_tasks=int(baseline["target_tasks"]),
        seed=int(baseline["seed"]),
    )
    run = lambda: execute_spec(spec)  # noqa: E731
    run()  # warm
    optimized = _best_of(run, reps)
    with reference_mode():
        reference = _best_of(run, reps)
    optimized = min(optimized, _best_of(run, reps))
    detail = f"{baseline['n_nodes']} nodes / {baseline['target_tasks']} tasks"
    return _check_ratio(
        "large-fleet", detail, optimized, reference,
        float(baseline["expected_ratio"]), float(baseline["fail_below_fraction"]),
    )


def _telemetry_gate(baseline: dict, reps: int) -> bool:
    """Telemetry-on must stay within ``budget_ratio`` of telemetry-off.

    An *upper*-bound gate, unlike the speedup ratios above.  The paired
    method exists because wall-clock on a shared host drifts by several
    percent over the minutes this gate runs — more than the overhead
    being measured — so three defenses are layered:

    * a discarded warm run first (a process's first fleet-scale run is
      measurably slower than its steady state: allocator arenas, import
      side tables, and branch caches are still filling);
    * on/off pairs with *alternating order* (off-first, then on-first),
      so monotone within-process drift penalizes neither side, and the
      best of each side compared;
    * cyclic GC paused while timing, for the same reason
      ``benchmarks/test_overhead.py`` pauses it: collector pauses land
      arbitrarily across 30+ second runs and would measure GC scheduling
      luck, not the instrumentation hooks this gate watches.
    """
    import gc

    from repro.experiments.scenarios import large_fleet_spec
    from repro.runner.engine import execute_spec

    spec = large_fleet_spec(
        n_nodes=int(baseline["n_nodes"]),
        target_tasks=int(baseline["target_tasks"]),
        seed=int(baseline["seed"]),
    )

    def timed(telemetry: bool) -> float:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            execute_spec(spec, telemetry=telemetry)
            return time.perf_counter() - start
        finally:
            gc.enable()

    timed(False)  # discarded warm run
    offs = []
    ons = []
    for index in range(reps):
        if index % 2 == 0:
            offs.append(timed(False))
            ons.append(timed(True))
        else:
            ons.append(timed(True))
            offs.append(timed(False))
    off = min(offs)
    on = min(ons)
    ratio = on / off
    budget = float(baseline["budget_ratio"])
    detail = f"{baseline['n_nodes']} nodes / {baseline['target_tasks']} tasks"
    print(
        f"telemetry {detail}: off {off:.2f} s, on {on:.2f} s, "
        f"ratio {ratio:.3f}x (budget {budget:.2f}x)"
    )
    if ratio > budget:
        print(
            f"FAIL: telemetry overhead {ratio:.3f}x exceeds the {budget:.2f}x "
            "budget in BENCH_telemetry.json — the sampler's hot paths "
            "got more expensive."
        )
        return False
    print("PASS: telemetry overhead within budget.")
    return True


def _serve_gate(baseline: dict) -> bool:
    """The serve daemon must still take the committed heartbeat load.

    Unlike the in-process ratio gates, this one crosses a real socket to
    a real subprocess, so its thresholds are deliberately loose: the
    open-loop generator falling far below the offered rate, any error on
    either side, or a decision-latency p99 orders of magnitude above the
    measured ~0.1 ms all indicate a code regression; anything subtler is
    host noise this gate refuses to flake on.
    """
    from repro.serve.bench import run_serve_benchmark

    result = run_serve_benchmark(
        rate=float(baseline["rate"]),
        duration=float(baseline["duration"]),
        scheduler=str(baseline["scheduler"]),
        seed=int(baseline["seed"]),
        connections=int(baseline["connections"]),
        service_time=float(baseline["service_time"]),
        time_scale=float(baseline["time_scale"]),
    )
    offered = float(baseline["rate"])
    achieved = result["achieved_heartbeats_per_sec"]
    fraction = achieved / offered
    min_fraction = float(baseline["min_achieved_fraction"])
    decision_p99 = (result["server"].get("decision_latency_ms") or {}).get("p99")
    budget_ms = float(baseline["decision_p99_budget_ms"])
    answered = result["responses_received"] == result["heartbeats_sent"]
    errors = result["client_errors"] + (result["server"].get("errors") or 0)
    print(
        f"serve {offered:.0f} hb/s offered for {baseline['duration']} s: "
        f"achieved {achieved:.0f} hb/s ({fraction:.2f}x, floor {min_fraction:.2f}x), "
        f"errors {errors}, decision p99 "
        f"{'n/a' if decision_p99 is None else f'{decision_p99:.3f} ms'} "
        f"(budget {budget_ms:.1f} ms), rtt p99 {result['rtt_ms']['p99']:.0f} ms"
    )
    ok = True
    if fraction < min_fraction:
        print(
            f"FAIL: serve throughput fell below {min_fraction:.0%} of the "
            "offered rate in BENCH_serve.json."
        )
        ok = False
    if errors or not answered:
        print("FAIL: serve run had protocol errors or unanswered heartbeats.")
        ok = False
    if decision_p99 is None or decision_p99 > budget_ms:
        print(
            f"FAIL: decision-latency p99 over the {budget_ms:.1f} ms budget "
            "in BENCH_serve.json — the heartbeat hot path got slower."
        )
        ok = False
    if ok:
        print("PASS: serve throughput and decision latency within baseline.")
    return ok


def main(reps: int = 15) -> int:
    baselines = json.loads(BASELINE_PATH.read_text())
    ok = _kernel_gate(baselines["reference_ratio"], reps)
    fleet = baselines.get("large_fleet_ratio")
    if fleet is not None:
        ok = _large_fleet_gate(fleet, int(fleet.get("reps", 3))) and ok
    if TELEMETRY_BASELINE_PATH.exists():
        telemetry = json.loads(TELEMETRY_BASELINE_PATH.read_text())
        gate = telemetry["telemetry_overhead"]
        ok = _telemetry_gate(gate, int(gate.get("reps", 2))) and ok
    if SERVE_BASELINE_PATH.exists():
        serve = json.loads(SERVE_BASELINE_PATH.read_text())
        ok = _serve_gate(serve["serve_throughput"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
