"""The shared scenario corpus of the differential and golden suites.

Small, fast scenarios chosen to exercise every hot path the kernel
optimization touched: all three paper schedulers (Fair, Tarazu, E-Ant)
plus the remaining baselines, metered and unmetered runs, E-Ant config
variants (deterministic selection, beta = 0), and fault plans that drive
the churn paths (crash/recover, join, decommission, slowdown).  The
``*-idlegap-*`` scenarios leave the cluster idle for longer than
``tracker_expiry`` between two jobs, where idle TaskTrackers park, and
put a crash/recover, a flaky-heartbeat window or a join inside that gap.
``late-spec-seed21`` and ``fair-reducecrash-seed18`` kill task attempts
(a speculative loser; reduces in every phase) so that every interrupt
site of a running attempt is pinned by some digest.

Each scenario completes in well under a second so the corpus stays
tier-1 friendly; determinism, not scale, is what these runs probe.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import EAntConfig
from repro.experiments.scenarios import large_fleet_spec, trace_driven_spec
from repro.faults import FaultEvent, FaultPlan
from repro.hadoop import HadoopConfig
from repro.runner import ScenarioSpec
from repro.workloads import DiurnalProcess, puma_job, render_trace

#: Scientific-notation digits for the large-fleet tolerance tier: floats
#: must agree to 10 significant digits — loose enough for sub-ulp
#: accumulation-order noise at thousand-machine reductions, tight enough
#: that any real behavioural divergence (a misrouted task, a dropped
#: heartbeat) changes the digest.
LARGE_FLEET_PRECISION = 9


def _jobs(*specs) -> Tuple:
    return tuple(specs)


def _churn_plan() -> FaultPlan:
    """Crash -> recover -> join -> slowdown, all mid-workload."""
    return FaultPlan(
        events=(
            FaultEvent(time=40.0, kind="crash", machine_id=3),
            FaultEvent(time=140.0, kind="recover", machine_id=3),
            FaultEvent(time=60.0, kind="join", model="T420"),
            FaultEvent(time=80.0, kind="slowdown", machine_id=5, factor=0.5, duration=120.0),
        )
    )


def _decommission_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(time=50.0, kind="decommission", machine_id=7),
            FaultEvent(time=70.0, kind="flaky_heartbeats", machine_id=2, drop_probability=0.4, duration=90.0),
        )
    )


def _reduce_crash_plan() -> FaultPlan:
    """Crashes timed against ``fair-reducecrash-seed18``'s reduce attempts:
    terasort's in its shuffle transfer (t=33) then in reduce (t=140), both
    grep reduces on the map barrier (t=50) and one retry in sort (t=90),
    and both wordcount reduces on the map barrier (t=100)."""
    return FaultPlan(
        events=tuple(
            FaultEvent(time=time, kind="crash", machine_id=machine_id)
            for time, machine_id in ((33.0, 7), (50.0, 14), (90.0, 11), (100.0, 10), (140.0, 4))
        )
    )


def _corpus_trace():
    """A small rendered diurnal trace (~12 tiny jobs over 240 s).

    Deterministic in (process, duration, name, seed), so the trace digest
    — and with it every trace-driven spec hash below — is frozen.
    """
    process = DiurnalProcess(base_rate_per_s=0.05, amplitude=0.8, period_s=240.0)
    return render_trace(
        process,
        duration_s=240.0,
        name="corpus-diurnal",
        seed=7,
        task_counts=(1, 2, 4),
    )


def build_corpus() -> List[Tuple[str, ScenarioSpec]]:
    """(name, spec) pairs; names key the golden files on disk."""
    wordcount = puma_job("wordcount", 1.0)
    grep = puma_job("grep", 1.0, submit_time=30.0)
    terasort = puma_job("terasort", 0.5, submit_time=15.0)
    trio = _jobs(wordcount, terasort, grep)

    corpus: List[Tuple[str, ScenarioSpec]] = [
        ("fair-duo-seed0", ScenarioSpec(jobs=_jobs(wordcount, grep), scheduler="fair", seed=0)),
        (
            "fair-metered-seed1",
            ScenarioSpec(jobs=trio, scheduler="fair", seed=1, with_meter=True, meter_interval=15.0),
        ),
        ("tarazu-trio-seed2", ScenarioSpec(jobs=trio, scheduler="tarazu", seed=2)),
        ("eant-trio-seed0", ScenarioSpec(jobs=trio, scheduler="e-ant", seed=0)),
        (
            "eant-deterministic-seed4",
            ScenarioSpec(
                jobs=trio,
                scheduler="e-ant",
                seed=4,
                eant_config=EAntConfig(deterministic_selection=True),
            ),
        ),
        (
            "eant-beta0-seed5",
            ScenarioSpec(jobs=trio, scheduler="e-ant", seed=5, eant_config=EAntConfig(beta=0.0)),
        ),
        (
            "eant-churn-seed6",
            ScenarioSpec(jobs=trio, scheduler="e-ant", seed=6, faults=_churn_plan()),
        ),
        (
            "fair-decommission-seed7",
            ScenarioSpec(jobs=trio, scheduler="fair", seed=7, faults=_decommission_plan()),
        ),
        ("fifo-duo-seed8", ScenarioSpec(jobs=_jobs(wordcount, terasort), scheduler="fifo", seed=8)),
        ("late-duo-seed9", ScenarioSpec(jobs=_jobs(wordcount, grep), scheduler="late", seed=9)),
        (
            "eant-churn-metered-seed11",
            ScenarioSpec(
                jobs=trio,
                scheduler="e-ant",
                seed=11,
                faults=_churn_plan(),
                with_meter=True,
                meter_interval=20.0,
            ),
        ),
        # Trace-driven runs: the workload comes from a rendered diurnal
        # trace whose content digest is folded into the spec identity.
        (
            "eant-trace-seed3",
            trace_driven_spec(_corpus_trace(), scheduler="e-ant", seed=3),
        ),
        (
            "fair-trace-openloop-seed12",
            trace_driven_spec(
                _corpus_trace(),
                scheduler="fair",
                seed=12,
                open_loop=True,
                horizon=150.0,
            ),
        ),
    ]
    # Idle-gap runs: the first job is done within ~65 s, the second arrives
    # at 200 s, so the fleet idles well past the 30 s tracker expiry.
    gap = _jobs(puma_job("wordcount", 0.5), puma_job("grep", 0.5, submit_time=200.0))
    corpus += [
        ("fifo-idlegap-seed13", ScenarioSpec(jobs=gap, scheduler="fifo", seed=13)),
        ("fair-idlegap-seed14", ScenarioSpec(jobs=gap, scheduler="fair", seed=14)),
        ("eant-idlegap-seed15", ScenarioSpec(jobs=gap, scheduler="e-ant", seed=15)),
        (
            "fair-idlegap-crash-seed16",
            ScenarioSpec(
                jobs=gap,
                scheduler="fair",
                seed=16,
                faults=FaultPlan(
                    events=(
                        FaultEvent(time=90.0, kind="crash", machine_id=4),
                        FaultEvent(time=160.0, kind="recover", machine_id=4),
                    )
                ),
            ),
        ),
        (
            # p = 0.9 over 130 s: long drop streaks expire the tracker
            # while its daemon keeps heartbeating into the second job.
            "eant-idlegap-flaky-seed17",
            ScenarioSpec(
                jobs=gap,
                scheduler="e-ant",
                seed=17,
                faults=FaultPlan(
                    events=(
                        FaultEvent(
                            time=100.0,
                            kind="flaky_heartbeats",
                            machine_id=6,
                            drop_probability=0.9,
                            duration=130.0,
                        ),
                    )
                ),
            ),
        ),
        (
            "fifo-idlegap-join-seed20",
            ScenarioSpec(
                jobs=gap,
                scheduler="fifo",
                seed=20,
                faults=FaultPlan(
                    events=(FaultEvent(time=120.0, kind="join", model="T420"),)
                ),
            ),
        ),
    ]
    # Interrupt runs: every place a task attempt can be killed is reached
    # by at least one scenario (test_corpus_kills_attempts_at_every_interrupt_site
    # in tests/test_golden_corpus.py counts them).  LATE with speculation kills losing map copies; the
    # crash plan below, on a 0.05 reduce slowstart, kills reduces while
    # they wait on the map barrier, in the shuffle transfer, in sort and in
    # reduce (and maps in their io phase).
    corpus += [
        (
            "late-spec-seed21",
            ScenarioSpec(
                jobs=_jobs(wordcount, grep),
                scheduler="late",
                seed=21,
                hadoop=HadoopConfig(speculative_execution=True),
            ),
        ),
        (
            "fair-reducecrash-seed18",
            ScenarioSpec(
                jobs=trio,
                scheduler="fair",
                seed=18,
                hadoop=HadoopConfig(reduce_slowstart=0.05),
                faults=_reduce_crash_plan(),
            ),
        ),
    ]
    return corpus


def build_large_fleet_corpus() -> List[Tuple[str, ScenarioSpec]]:
    """Procedural-fleet scenarios for the float-tolerance parity tier.

    Big enough that the vectorized kernel's dense paths (hundreds of
    pheromone columns, index-array slot totals) actually matter, small
    enough to stay tier-1 friendly.  These are checked against
    ``reference_mode()`` at :data:`LARGE_FLEET_PRECISION` rather than by
    bit identity — the exact-parity contract is pinned by the 16-node
    corpus above.
    """
    return [
        (
            "eant-largefleet-120",
            large_fleet_spec(n_nodes=120, target_tasks=600, seed=12),
        ),
        (
            "fair-largefleet-96",
            large_fleet_spec(n_nodes=96, target_tasks=480, seed=13, scheduler="fair"),
        ),
    ]
