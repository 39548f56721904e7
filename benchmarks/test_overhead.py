"""Section VI-D — scheduling overhead (paper: ~120 ms per ACO solve)."""

import gc
import time

from repro.experiments import measure_update_overhead, run_scenario
from repro.experiments import testbed_problem as build_testbed_problem
from repro.experiments.scenarios import msd_scenario
from repro.core import AcoSolver
from repro.observability import Tracer

from .conftest import heading


def test_aco_solver_overhead(benchmark):
    problem = build_testbed_problem()
    solver = AcoSolver(n_ants=8, n_iterations=20, seed=1)
    solution = benchmark(solver.solve, problem)
    heading("ACO batch solve on a 16-machine x 96-task instance")
    print(f"best cost {solution.cost:.0f} J (paper overhead: ~120 ms per solve)")
    assert solution.cost > 0


def test_pheromone_update_overhead(benchmark):
    result = benchmark.pedantic(
        measure_update_overhead, kwargs={"repetitions": 10}, rounds=1, iterations=1
    )
    heading("online E-Ant per-interval pheromone update")
    print(f"mean {result.mean_seconds*1000:.2f} ms per control interval")
    # Negligible against the 5-minute control interval, as the paper notes.
    assert result.mean_seconds < 0.3


def test_telemetry_overhead_guard():
    """A fully-telemetered run must stay within 1.25x the bare wall-clock.

    Same paired method as :func:`test_tracing_overhead_guard`, but for the
    columnar :class:`~repro.observability.TelemetrySink` (``telemetry=True``
    turns on the sampler plus the per-heartbeat latency buffering).  The committed fleet-scale budget is 1.05x on the
    1,000-node scenario (``BENCH_telemetry.json``, enforced by
    ``benchmarks/check_regression.py``); this pytest-tier guard runs a
    small scenario where fixed per-run costs weigh proportionally more,
    so it gets the looser 1.25x bound.
    """
    jobs, hadoop = msd_scenario(seed=3, n_jobs=12)

    def run_once(telemetry):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run_scenario(
                jobs, scheduler="e-ant", hadoop=hadoop, seed=3, telemetry=telemetry
            )
            return time.perf_counter() - start
        finally:
            gc.enable()

    run_once(None)  # warm caches before timing
    pairs = [(run_once(None), run_once(True)) for _ in range(4)]
    bare = min(b for b, _ in pairs)
    telemetered = min(t for _, t in pairs)
    ratio = telemetered / bare
    heading("telemetry overhead on the Fig. 8 scenario (12 MSD jobs, e-ant)")
    print(f"bare {bare*1000:.0f} ms  telemetered {telemetered*1000:.0f} ms  ratio {ratio:.3f}")
    assert ratio <= 1.25, f"telemetry overhead {ratio:.3f}x exceeds the 1.25x budget"


def test_tracing_overhead_guard():
    """A fully-traced run must stay within 1.25x the untraced wall-clock.

    Uses a small slice of the Fig. 8 MSD scenario under E-Ant (the most
    instrumented scheduler: lifecycle + heartbeat + decision-audit events).
    Untraced/traced runs are interleaved and the best of each is compared,
    so background-load drift on CI machines biases neither side.  Cyclic GC
    is paused while timing: the collector fires on allocation counts, so
    its pauses land arbitrarily across runs and would measure collector
    scheduling (which retaining any large in-memory trace perturbs), not
    the cost of the instrumentation hooks this guard watches.
    """
    jobs, hadoop = msd_scenario(seed=3, n_jobs=12)

    def run_once(trace):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run_scenario(jobs, scheduler="e-ant", hadoop=hadoop, seed=3, trace=trace)
            return time.perf_counter() - start
        finally:
            gc.enable()

    run_once(None)  # warm caches/JIT-ish paths before timing
    # 8 pairs: the ratio sits near the budget on shared hosts (it was
    # ~1.23 at the guard's introduction), so the best-of needs enough
    # samples that one slow traced run cannot tip it over.
    pairs = [(run_once(None), run_once(Tracer())) for _ in range(8)]
    untraced = min(u for u, _ in pairs)
    traced = min(t for _, t in pairs)
    ratio = traced / untraced
    heading("tracing overhead on the Fig. 8 scenario (12 MSD jobs, e-ant)")
    print(f"untraced {untraced*1000:.0f} ms  traced {traced*1000:.0f} ms  ratio {ratio:.3f}")
    assert ratio <= 1.25, f"tracing overhead {ratio:.3f}x exceeds the 1.25x budget"
