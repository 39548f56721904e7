"""Command-line interface: ``python -m repro`` or the ``eant-repro`` script.

Subcommands
-----------
``catalog``
    Print the calibrated machine catalog (Table I / Section V-B).
``run``
    Simulate a PUMA job mix under a chosen scheduler.  ``--trace FILE``
    drives the run from a workload trace file instead of ``--jobs``;
    ``--horizon SECONDS`` additionally runs it open-loop (the run is cut
    at the horizon and backlog/admission accounting is printed).
``workload``
    Workload trace files: ``workload gen`` renders an arrival process
    (diurnal / bursty / flash-crowd) to a CSV or JSONL trace,
    ``workload validate`` checks a file against the schema (exit 2 with
    a ``file:line`` diagnostic on the first bad row), and ``workload
    describe`` prints a summary plus the content digest.
``compare``
    The headline Fair vs Tarazu vs E-Ant comparison on the MSD workload
    (Figs. 8-9).
``figure``
    Regenerate one paper figure's data (fig1a, fig1b, fig1c, fig1d, fig4,
    fig6, fig7, fig10, fig11a, fig11b, fig12a, fig12b, churn), optionally
    through the parallel sweep runner (``--workers``).
``sweep``
    Expand a (scheduler x seed x beta) grid over a job mix into
    :class:`~repro.runner.ScenarioSpec` form and resolve it through the
    parallel, content-addressed-cached :class:`~repro.runner.SweepRunner`.
    ``--dry-run`` prints the expanded grid (spec hashes + cache status)
    without simulating anything.  ``--shards N --shard-index i`` runs one
    content-addressed shard of the grid (any machine, any subset);
    ``--spool FILE.jsonl`` streams results to a crash-safe JSONL spool
    with O(1) memory and automatic resume — a killed sweep restarted
    against the same spool continues where it died (docs/sweeps.md).
``sweep-merge``
    Reassemble shard spools into one result set, deterministically:
    identical output whatever order the spools are given in.
    ``--check-manifest`` verifies coverage against shard manifests;
    ``--digests`` prints the diffable ``spec_hash record_digest`` listing.
``cache``
    Result-cache maintenance: ``cache info`` inventories entries and
    bytes per code generation; ``cache gc`` compacts with age/size
    bounds (``--max-age-days`` / ``--max-size-mb``), never touching spec
    hashes protected by ``--keep-manifest``, with ``--dry-run`` reporting
    exactly what a real pass would delete.
``trace``
    Summarize a JSONL trace file written by ``run --trace-out`` (event
    counts, decision-audit roll-up, flamegraph-style phase breakdown).
    Streams the file line by line — constant memory at any trace size.
``report``
    Replay a JSONL trace into the per-machine utilization/power sparkline
    report, offline — no re-simulation.  Also accepts telemetry exports
    (``.npz`` or JSON written by ``profile --out``) and renders the
    fleet-sparkline/layer-table view instead.
``profile``
    Run a job mix with the columnar telemetry layer attached under the
    stdlib ``cProfile`` and print the fleet time-series and the host-time
    table folded by ``repro`` layer; ``--out FILE.npz|.json`` exports
    both records for offline ``report``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar, Union

from .cluster import CATALOG, paper_fleet
from .core import EAntConfig
from .faults import FaultPlan, FaultPlanError
from .hadoop import HadoopConfig
from .experiments import (
    FIGURE_NAMES,
    SCHEDULER_NAMES,
    fig9_adaptiveness,
    figure_result,
    run_msd_comparison,
    run_scenario,
    trace_driven_spec,
)
from .runner import (
    ResultCache,
    ResultSpool,
    ScenarioSpec,
    ShardError,
    SweepError,
    SweepRunner,
    aggregate_digest,
    default_cache_dir,
    digest_listing,
    execute_spec,
    load_manifest,
    merge_spools,
    shard_specs,
)
from .workloads import (
    JobSpec,
    PUMA,
    PROCESS_KINDS,
    TraceError,
    TraceSpec,
    load_trace,
    make_process,
    puma_job,
    render_trace,
    write_trace,
)

__all__ = ["main", "build_parser"]

T = TypeVar("T")

#: The historical default job mix for `run`, `sweep`, and `profile`.
#: `--jobs` defaults to None in argparse so trace-driven invocations can
#: tell "flag omitted" from "flag given" (they are mutually exclusive).
DEFAULT_JOB_TOKENS = ["wordcount:4", "grep:4", "terasort:4"]


def _jobs_flag() -> argparse.ArgumentParser:
    """``--jobs`` (run, sweep, profile).

    Every flag group is a fresh parent parser per subcommand:
    ``set_defaults`` rewrites an action's default in place, so one parent
    instance shared by two subcommands would leak the defaults of one
    (``serve --seed 3``, ``profile --jobs``) into the other.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        nargs="+",
        default=None,
        metavar="APP:GB",
        help="jobs as application:input_gb, submitted a minute apart "
        f"(default: {' '.join(DEFAULT_JOB_TOKENS)})",
    )
    return parent


def _workload_flags() -> argparse.ArgumentParser:
    """``--trace/--horizon/--tracker-expiry/--faults`` (run, sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="FILE",
        help="drive the run (every grid point of a sweep) from a workload "
        "trace file (.csv/.jsonl, see `workload gen`) instead of --jobs; "
        "the trace digest is folded into each spec hash",
    )
    parent.add_argument(
        "--horizon",
        type=float,
        metavar="SECONDS",
        help="run open-loop: cut each run at this simulated time and print "
        "backlog/admission accounting (requires --trace)",
    )
    parent.add_argument(
        "--tracker-expiry",
        type=float,
        metavar="SECONDS",
        help="seconds without a heartbeat before the JobTracker declares a "
        "TaskTracker dead (0 disables expiry; default 30)",
    )
    parent.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject the fault plan from a JSON file into every run (see "
        "docs/faults.md)",
    )
    return parent


def _scheduler_flags() -> argparse.ArgumentParser:
    """``--scheduler/--seed`` (run, profile, serve)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="e-ant")
    parent.add_argument("--seed", type=int, default=0)
    return parent


def _cache_flag() -> argparse.ArgumentParser:
    """``--cache-dir`` (figure, sweep, cache gc, cache info)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=f"result cache location (default: {default_cache_dir()}; "
        "`figure` uses a cache only when given this or --workers, and "
        "then implies --workers 1)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eant-repro",
        description="E-Ant (ICDCS 2015) reproduction: simulate energy-aware "
        "task assignment on a heterogeneous Hadoop cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="print the calibrated machine catalog")
    catalog.set_defaults(handler=_cmd_catalog)

    run = sub.add_parser(
        "run",
        parents=[_scheduler_flags(), _jobs_flag(), _workload_flags()],
        help="simulate a PUMA job mix or a workload trace",
    )
    run.set_defaults(handler=_cmd_run)
    run.add_argument(
        "--timeline",
        action="store_true",
        help="print per-machine power sparklines (attaches a meter)",
    )
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a JSONL trace of the run (inspect with `trace`/`report`)",
    )

    compare = sub.add_parser("compare", help="Fair vs Tarazu vs E-Ant on MSD")
    compare.set_defaults(handler=_cmd_compare)
    compare.add_argument("--jobs", type=int, default=60, dest="n_jobs")
    compare.add_argument("--seed", type=int, default=3)

    trace = sub.add_parser("trace", help="summarize a JSONL trace file")
    trace.set_defaults(handler=_cmd_trace)
    trace.add_argument("file", help="trace written by `run --trace-out`")

    report = sub.add_parser("report", help="replay a trace into sparklines")
    report.set_defaults(handler=_cmd_report)
    report.add_argument(
        "file",
        help="trace written by `run --trace-out`, or a telemetry export "
        "written by `profile --out`",
    )

    workload = sub.add_parser(
        "workload",
        help="generate, validate, or describe workload trace files",
        description="Workload trace files (.csv/.jsonl) drive `run --trace` "
        "and `sweep --trace` (see docs/workloads.md).  `gen` renders an "
        "arrival process deterministically from a seed; `validate` checks "
        "a file against the schema; `describe` summarizes one.",
    )
    wsub = workload.add_subparsers(dest="workload_command", required=True)

    gen = wsub.add_parser("gen", help="render an arrival process to a trace file")
    gen.set_defaults(handler=_cmd_workload_gen)
    gen.add_argument(
        "--process",
        choices=sorted(PROCESS_KINDS),
        default="diurnal",
        help="arrival process to render (default: diurnal)",
    )
    gen.add_argument(
        "--rate",
        type=float,
        default=0.05,
        metavar="JOBS_PER_S",
        help="mean arrival rate in jobs per simulated second (default 0.05)",
    )
    gen.add_argument(
        "--duration",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="length of the rendered window in simulated seconds (default 3600)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--name",
        metavar="NAME",
        help="trace name (identity: names the RNG stream and the digest "
        "payload; default: the --out file stem, which is also what "
        "loading the file will call it)",
    )
    gen.add_argument(
        "--applications",
        nargs="+",
        choices=sorted(PUMA),
        metavar="APP",
        help="application pool jobs draw from (default: all PUMA)",
    )
    gen.add_argument(
        "--task-counts",
        nargs="+",
        type=int,
        metavar="N",
        help="map-task-count pool jobs draw from (default: 4 8 16)",
    )
    gen.add_argument(
        "--option",
        "-O",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="process shape option (repeatable), e.g. -O period_s=7200 "
        "-O amplitude=0.5 for diurnal, -O burst_multiplier=10 for bursty, "
        "-O spike_start_s=600 for flash-crowd",
    )
    gen.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="destination trace file (.csv, .jsonl, or .ndjson by extension)",
    )

    validate = wsub.add_parser(
        "validate", help="check a trace file against the schema"
    )
    validate.set_defaults(handler=_cmd_workload_validate)
    validate.add_argument("file", help="trace file to validate (.csv/.jsonl)")

    describe = wsub.add_parser(
        "describe", help="summarize a trace file (rows, span, digest)"
    )
    describe.set_defaults(handler=_cmd_workload_describe)
    describe.add_argument("file", help="trace file to describe (.csv/.jsonl)")

    profile = sub.add_parser(
        "profile",
        parents=[_scheduler_flags(), _jobs_flag()],
        help="run with telemetry under cProfile, host time by layer",
    )
    profile.set_defaults(handler=_cmd_profile, jobs=DEFAULT_JOB_TOKENS)
    profile.add_argument(
        "--interval",
        type=float,
        metavar="SECONDS",
        help="telemetry sampling period in simulated seconds "
        "(default: the Hadoop control interval, 300)",
    )
    profile.add_argument(
        "--out",
        metavar="FILE",
        help="export the telemetry/profile records (.npz or .json by "
        "extension; inspect later with `report`)",
    )

    figure = sub.add_parser(
        "figure", parents=[_cache_flag()], help="regenerate one paper figure's data"
    )
    figure.set_defaults(handler=_cmd_figure)
    figure.add_argument("name", choices=list(FIGURE_NAMES))
    figure.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="resolve the figure's scenario grid on an N-worker pool",
    )

    sweep = sub.add_parser(
        "sweep",
        parents=[_jobs_flag(), _workload_flags(), _cache_flag()],
        help="run a scheduler/seed/beta grid through the sweep runner",
    )
    sweep.set_defaults(handler=_cmd_sweep)
    sweep.add_argument(
        "--schedulers",
        nargs="+",
        choices=SCHEDULER_NAMES,
        default=["fair", "e-ant"],
        metavar="NAME",
        help=f"schedulers to grid over (from: {', '.join(SCHEDULER_NAMES)})",
    )
    sweep.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0, 1],
        metavar="N",
        help="workload seeds to grid over",
    )
    sweep.add_argument(
        "--betas",
        nargs="+",
        type=float,
        metavar="B",
        help="E-Ant heuristic weights to grid over (expands e-ant runs only)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="pool size (default: all CPUs; 1 = serial in-process)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate; neither read nor write the result cache",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded grid (hashes + cache status) and exit",
    )
    sweep.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="split the grid into N content-addressed shards and run only "
        "--shard-index (shard membership depends on spec hashes alone, "
        "never on enumeration order)",
    )
    sweep.add_argument(
        "--shard-index",
        type=int,
        metavar="I",
        help="which shard to run, in [0, N) (required with --shards)",
    )
    sweep.add_argument(
        "--spool",
        metavar="FILE.jsonl",
        help="stream each result to this JSONL spool as it completes "
        "(O(1) memory; an existing spool is resumed: completed specs are "
        "not re-run, damaged lines are redone with a warning)",
    )
    sweep.add_argument(
        "--manifest-out",
        metavar="FILE.json",
        help="also write this run's shard manifest (grid digest + member "
        "spec hashes; feeds `sweep-merge --check-manifest` and "
        "`cache gc --keep-manifest`)",
    )

    merge = sub.add_parser(
        "sweep-merge",
        help="merge sweep result spools into one result set",
        description="Reassemble the JSONL spools of a sharded or resumed "
        "sweep deterministically: the merged output and its aggregate "
        "digest are identical whatever order the spools are given in "
        "(see docs/sweeps.md).",
    )
    merge.set_defaults(handler=_cmd_sweep_merge)
    merge.add_argument("spools", nargs="+", metavar="SPOOL.jsonl")
    merge.add_argument(
        "--out",
        metavar="FILE.jsonl",
        help="write the merged spool (lines re-encoded in spec-hash order)",
    )
    merge.add_argument(
        "--digests",
        action="store_true",
        help="print the sorted `spec_hash record_digest` listing to stdout "
        "(the summary moves to stderr so the listing diffs cleanly)",
    )
    merge.add_argument(
        "--check-manifest",
        action="append",
        default=[],
        metavar="M.json",
        help="verify the merged set covers this shard manifest "
        "(repeatable; exit 1 on missing specs)",
    )

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect or compact the result cache",
        description="Maintenance for the content-addressed result cache "
        "(see docs/sweeps.md for the GC policy).",
    )
    csub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    gc = csub.add_parser(
        "gc", parents=[_cache_flag()], help="age/size-bounded cache compaction"
    )
    gc.set_defaults(handler=_cmd_cache_gc)
    gc.add_argument(
        "--max-age-days",
        type=float,
        metavar="D",
        help="evict entries not stored or hit in the last D days",
    )
    gc.add_argument(
        "--max-size-mb",
        type=float,
        metavar="M",
        help="evict oldest entries until the cache fits in M megabytes",
    )
    gc.add_argument(
        "--keep-manifest",
        action="append",
        default=[],
        metavar="M.json",
        help="never evict specs listed in this shard manifest (repeatable)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    info = csub.add_parser(
        "info", parents=[_cache_flag()], help="inventory entries and bytes"
    )
    info.set_defaults(handler=_cmd_cache_info)

    serve = sub.add_parser(
        "serve",
        parents=[_scheduler_flags()],
        help="serve the scheduler core as an NDJSON heartbeat daemon",
        description="Run the scheduler core behind an asyncio NDJSON server "
        "(see docs/serving.md); each message stamps the daemon's scaled "
        "wall clock, and a control interval fires when that clock passes "
        "its deadline.  With --loadgen, additionally drive it "
        "with open-loop synthetic heartbeats and print the measured "
        "throughput/latency summary; with --bench, run the daemon in a "
        "subprocess and measure the BENCH_serve.json throughput gate.",
    )
    serve.set_defaults(handler=_cmd_serve, seed=3)
    serve.add_argument(
        "--nodes",
        type=int,
        metavar="N",
        help="serve an N-node procedural fleet (default: the 16-node paper fleet)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        help="TCP port (default 7077, or an ephemeral port under --loadgen)",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="serve on a UNIX-domain socket instead of TCP",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        metavar="X",
        help="simulated seconds per wall second (a control interval fires "
        "on the first message after each 300 simulated seconds, i.e. about "
        "every 300/X wall seconds under steady traffic; default 1.0 = real "
        "time, or 600 under --loadgen/--bench so intervals fire within a "
        "short run)",
    )
    serve.add_argument(
        "--loadgen",
        type=float,
        metavar="RATE",
        help="also run the open-loop load generator at RATE heartbeats/sec "
        "against the daemon, in-process",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="load-generation length in wall seconds (with --loadgen/--bench)",
    )
    serve.add_argument(
        "--connections",
        type=int,
        default=4,
        metavar="N",
        help="loadgen socket count (trackers shard across them)",
    )
    serve.add_argument(
        "--service-time",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="wall seconds a synthetic task holds its slot before reporting",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="with --loadgen: replay this workload trace's arrivals as the "
        "submit schedule (each row submits at arrival_time / time-scale "
        "wall seconds) instead of the fixed-interval synthetic jobs",
    )
    serve.add_argument(
        "--bench",
        action="store_true",
        help="run the throughput benchmark (daemon in a subprocess over a "
        "UNIX socket; loadgen in this process)",
    )
    serve.add_argument(
        "--bench-out",
        metavar="FILE.json",
        help="also write the --loadgen/--bench summary JSON to FILE",
    )
    return parser


def _cmd_catalog(args: argparse.Namespace) -> int:
    print(f"{'model':8s} {'cores':>5s} {'cpu':>5s} {'io':>5s} {'mem':>5s} "
          f"{'idle W':>7s} {'alpha W':>8s} {'slots':>6s}")
    for spec in CATALOG.values():
        print(
            f"{spec.model:8s} {spec.cores:5d} {spec.cpu_speed:5.2f} "
            f"{spec.io_speed:5.2f} {spec.memory_gb:5d} "
            f"{spec.power.idle_watts:7.1f} {spec.power.alpha_watts:8.1f} "
            f"{spec.map_slots}+{spec.reduce_slots:d}"
        )
    fleet = ", ".join(f"{count}x {spec.model}" for spec, count in paper_fleet())
    print(f"\npaper fleet (Section V-B): {fleet}")
    return 0


def _print_run_config(**fields) -> None:
    """Echo the run configuration (notably the seed) so output is replayable."""
    rendered = " ".join(f"{key}={value}" for key, value in fields.items() if value is not None)
    print(f"# {rendered}")


class CliError(ValueError):
    """A CLI option failed validation (message is user-facing, exit 2).

    Build instances with :func:`cli_error` so every message carries the
    ``file:line`` of the validation that rejected the input.  ``main``
    catches this at the top level: one stderr line, exit status 2, never
    a traceback.
    """


def cli_error(message: str) -> CliError:
    """The standard input-validation failure: ``file:line: error: message``.

    Captures the caller's source location, compiler-style, so a rejected
    flag points at the exact validation that rejected it.  Call sites
    ``raise cli_error(...)``; :func:`main` renders it and exits 2.
    """
    frame = sys._getframe(1)
    location = "/".join(Path(frame.f_code.co_filename).parts[-2:])
    return CliError(f"{location}:{frame.f_lineno}: error: {message}")


def _flag_value(flag: str, build: Callable[[], T]) -> T:
    """Run ``build()``, a library constructor fed a flag's value; its
    ``ValueError`` becomes a :class:`CliError` naming ``flag``.

    The value checks live in the types that own the fields
    (:class:`HadoopConfig`, :class:`JobSpec`, :class:`ScenarioSpec`); the
    CLI only says which flag carried the value.
    """
    try:
        return build()
    except ValueError as error:
        raise cli_error(f"{flag}: {error}") from None


def _positive_finite(value: Optional[float], flag: str) -> None:
    """Reject 0, negatives, nan and inf for a flag no library type owns
    (``None``, an omitted optional flag, passes)."""
    if value is not None and not (0 < value < math.inf):
        raise cli_error(f"{flag} must be a positive finite number (got {value!r})")


def _non_negative_finite(value: Optional[float], flag: str) -> None:
    """:func:`_positive_finite`, but 0 is allowed."""
    if value is not None and not (0 <= value < math.inf):
        raise cli_error(f"{flag} must be a non-negative finite number (got {value!r})")


def parse_tracker_expiry(value: Optional[float]) -> Optional[HadoopConfig]:
    """Validate ``--tracker-expiry`` into a :class:`HadoopConfig` override.

    ``None`` (flag absent) keeps the default config.  ``float`` accepts
    ``"nan"`` and ``"inf"``; :class:`HadoopConfig` rejects them, and the
    CLI exits 2 with a one-line message instead of a traceback.
    """
    if value is None:
        return None
    return _flag_value("--tracker-expiry", lambda: HadoopConfig(tracker_expiry=value))


def load_fault_plan(path: Optional[str]) -> Optional[FaultPlan]:
    """Load ``--faults PLAN.json``, mapping every failure mode (missing
    file, bad JSON, invalid plan) to a one-line :class:`CliError`."""
    if path is None:
        return None
    try:
        return FaultPlan.from_file(path)
    except FaultPlanError as error:
        raise cli_error(f"--faults {path}: {error}") from None


def parse_job_tokens(tokens: List[str]) -> List[JobSpec]:
    """Parse ``APP:GB`` tokens into jobs submitted a minute apart.

    Raises :class:`CliError` on an unknown application or a gigabyte
    field that is not a positive finite number — ``float`` accepts
    ``"nan"``, ``"inf"`` and negatives, which :class:`JobSpec` rejects.
    """
    jobs: List[JobSpec] = []
    for index, token in enumerate(tokens):
        app, _, gb = token.partition(":")
        if app not in PUMA:
            raise cli_error(
                f"unknown application {app!r}; known: {sorted(PUMA)}"
            )
        jobs.append(
            _flag_value(
                f"{token}: expected form app:gb",
                lambda: puma_job(
                    app, input_gb=float(gb) if gb else 4.0, submit_time=index * 60.0
                ),
            )
        )
    return jobs


#: What ``run`` and ``sweep`` simulate: a loaded ``--trace`` or the
#: ``--jobs`` mix.
Workload = Union[TraceSpec, Tuple[JobSpec, ...]]


def load_scenario_flags(args: argparse.Namespace) -> Tuple[Workload, Dict[str, Any]]:
    """Validate the shared ``run``/``sweep`` flags, reading each file once.

    Returns the workload and the :class:`ScenarioSpec` fields every
    scenario of the invocation shares, for :func:`make_spec`.  Resolves
    an omitted ``--jobs`` to :data:`DEFAULT_JOB_TOKENS` in ``args`` so the
    config echo shows the mix that ran.
    """
    if args.trace is not None and args.jobs is not None:
        raise cli_error("--trace and --jobs are mutually exclusive")
    if args.horizon is not None and args.trace is None:
        raise cli_error("--horizon requires --trace (open-loop runs are trace-driven)")
    shared = {
        "hadoop": parse_tracker_expiry(args.tracker_expiry),
        "faults": load_fault_plan(args.faults),
        "open_loop": args.horizon is not None,
        "horizon": args.horizon,
    }
    if args.trace is not None:
        return load_trace(args.trace), shared
    if args.jobs is None:
        args.jobs = DEFAULT_JOB_TOKENS
    return tuple(parse_job_tokens(args.jobs)), shared


def make_spec(
    workload: Workload,
    shared: Dict[str, Any],
    scheduler: str,
    seed: int,
    label: Optional[str] = None,
    **extra: Any,
) -> ScenarioSpec:
    """One scenario from :func:`load_scenario_flags`: the single ``run``,
    or one ``sweep`` grid point (``label``/``extra`` vary per point).

    Trace-driven specs label grid points ``TRACE/LABEL``.  A bad
    ``--horizon`` (nan, inf, <= 0) is rejected by :class:`ScenarioSpec`.
    """
    fields = dict(shared, scheduler=scheduler, seed=seed, **extra)
    if isinstance(workload, TraceSpec):
        label = f"{workload.name}/{label}" if label is not None else None
        return _flag_value(
            "--horizon", lambda: trace_driven_spec(workload, label=label, **fields)
        )
    return ScenarioSpec(jobs=workload, label=label, **fields)


def _print_backlog(backlog) -> None:
    """Render a :class:`~repro.runner.BacklogRecord` (open-loop runs)."""
    print(f"\nopen-loop accounting at the t={backlog.horizon:.0f}s horizon:")
    print(
        f"  offered   : {backlog.jobs_offered} jobs "
        f"({backlog.offered_rate_per_s:.4f}/s)"
    )
    print(
        f"  admitted  : {backlog.jobs_admitted} "
        f"({backlog.jobs_not_admitted} arrived past the horizon)"
    )
    print(
        f"  completed : {backlog.jobs_completed} jobs, "
        f"{backlog.tasks_completed} tasks "
        f"({backlog.completion_rate_per_s:.4f} jobs/s drain)"
    )
    print(
        f"  backlog   : {backlog.jobs_unfinished} jobs in flight; "
        f"{backlog.maps_pending} maps + {backlog.reduces_pending} reduces pending"
        + ("  [saturated]" if backlog.saturated else "")
    )


def _cmd_run(args: argparse.Namespace) -> int:
    workload, shared = load_scenario_flags(args)
    spec = make_spec(
        workload,
        shared,
        args.scheduler,
        args.seed,
        with_meter=args.timeline,
        meter_interval=10.0,
    )
    _print_run_config(
        scheduler=args.scheduler,
        seed=args.seed,
        jobs=None if spec.trace else ",".join(args.jobs),
        trace=f"{args.trace}#{spec.trace.short_digest}" if spec.trace else None,
        horizon=args.horizon,
        trace_out=args.trace_out,
        tracker_expiry=args.tracker_expiry,
        faults=args.faults,
    )
    try:
        result = execute_spec(spec, trace=args.trace_out)
    except OSError as error:
        raise cli_error(f"cannot write trace {args.trace_out!r}: {error}") from None
    if result.metrics.job_results:
        print(result.metrics.summary())
    else:
        # An overloaded open-loop run can finish zero jobs inside the
        # horizon; the summary's mean-JCT is undefined then.
        print(f"scheduler={args.scheduler} seed={args.seed}")
        print("  jobs completed : 0 (no completions before the horizon)")
        print(f"  total energy   : {result.metrics.total_energy_kj:.1f} kJ")
    print("\nenergy by machine type (kJ):")
    for model, joules in sorted(result.metrics.energy_by_type.items()):
        print(f"  {model:8s} {joules / 1000:8.1f}")
    if result.backlog is not None:
        _print_backlog(result.backlog)
    if result.injector is not None:
        print("\nfault timeline:")
        for rec in result.injector.recovery_summary():
            target = "-" if rec.machine_id is None else str(rec.machine_id)
            print(
                f"  t={rec.time:8.1f}s  {rec.kind:12s} machine={target:3s} "
                f"disrupted={rec.tasks_disrupted}  "
                f"recovered in {rec.recovery_seconds:.1f}s"
            )
    if args.timeline and result.meter is not None:
        from .metrics import timeline_report

        print("\nper-machine power over time:")
        print(timeline_report(result.meter))
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out} ({len(result.tracer.events)} events)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _print_run_config(schedulers="fair,tarazu,e-ant", seed=args.seed, jobs=args.n_jobs)
    comparison = run_msd_comparison(seed=args.seed, n_jobs=args.n_jobs)
    for name in ("fair", "tarazu", "e-ant"):
        metrics = comparison.metrics(name)
        print(
            f"{name:7s} total {metrics.total_energy_kj:8.0f} kJ  "
            f"dynamic {metrics.dynamic_energy_joules / 1000:7.0f} kJ  "
            f"makespan {metrics.makespan / 60:5.1f} min  "
            f"mean JCT {metrics.mean_jct() / 60:5.2f} min"
        )
    print(
        f"\nE-Ant saving: {comparison.saving_vs('fair'):+.1%} vs Fair, "
        f"{comparison.saving_vs('tarazu'):+.1%} vs Tarazu "
        f"(paper: 17% / 12%); dynamic saving vs Fair "
        f"{comparison.dynamic_saving_vs('fair'):+.1%}"
    )
    adaptiveness = fig9_adaptiveness(comparison)
    print("\nE-Ant placement per machine (Fig 9a):")
    for model, row in adaptiveness["by_app"].items():
        print(f"  {model:8s} {row}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    # The historical serial-uncached path unless a flag asks for more.
    runner = None
    if args.workers is not None or args.cache_dir is not None:
        runner = SweepRunner(workers=args.workers or 1, cache=ResultCache(args.cache_dir))
    print(figure_result(args.name, runner=runner).render())
    return 0


def _sweep_grid(args: argparse.Namespace) -> List[ScenarioSpec]:
    """Expand the sweep flags into the full spec grid, seed-major."""
    workload, shared = load_scenario_flags(args)
    specs: List[ScenarioSpec] = []
    for seed in args.seeds:
        for scheduler in args.schedulers:
            if scheduler == "e-ant" and args.betas:
                for beta in args.betas:
                    specs.append(
                        make_spec(
                            workload,
                            shared,
                            scheduler,
                            seed,
                            f"e-ant@seed{seed}/beta={beta:g}",
                            eant_config=EAntConfig(beta=beta),
                        )
                    )
            else:
                specs.append(
                    make_spec(workload, shared, scheduler, seed, f"{scheduler}@seed{seed}")
                )
    return specs


def _check_shard_flags(args: argparse.Namespace) -> None:
    """Validate the ``--shards``/``--shard-index`` pair (both or neither)."""
    if (args.shards is None) != (args.shard_index is None):
        raise cli_error("--shards and --shard-index must be given together")
    if args.shards is not None:
        if args.shards < 1:
            raise cli_error(f"--shards must be at least 1 (got {args.shards})")
        if not (0 <= args.shard_index < args.shards):
            raise cli_error(
                f"--shard-index must be in [0, {args.shards}) "
                f"(got {args.shard_index})"
            )


def _stderr_warn(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_shard_flags(args)
    if args.manifest_out is not None and args.shards is None:
        raise cli_error("--manifest-out requires --shards/--shard-index")
    specs = _sweep_grid(args)

    manifest = None
    if args.shards is not None:
        manifest, specs = shard_specs(specs, args.shards, args.shard_index)
        print(f"# {manifest.display}")
        if args.manifest_out is not None:
            try:
                manifest.write(args.manifest_out)
            except OSError as error:
                raise cli_error(
                    f"cannot write manifest {args.manifest_out!r}: {error}"
                ) from None
            print(f"# manifest written to {args.manifest_out}")

    cache = None if args.no_cache else ResultCache(args.cache_dir)

    if args.dry_run:
        print(f"# {len(specs)} specs; cache "
              f"{cache.generation_dir if cache else 'disabled'}")
        for spec in specs:
            if cache is None:
                status = "-"
            else:
                status = "cached" if cache.path_for(spec).exists() else "miss"
            print(f"{spec.spec_hash()[:12]}  {status:6s}  {spec.display_label}")
        return 0

    _print_run_config(
        schedulers=",".join(args.schedulers),
        seeds=",".join(str(s) for s in args.seeds),
        betas=",".join(f"{b:g}" for b in args.betas) if args.betas else None,
        jobs=",".join(args.jobs) if args.jobs is not None else None,
        trace=args.trace,
        horizon=args.horizon,
        workers=args.workers if args.workers is not None else os.cpu_count(),
        shard=f"{args.shard_index}/{args.shards}" if args.shards else None,
        spool=args.spool,
    )
    runner = SweepRunner(
        workers=args.workers, cache=cache, progress=print, warn=_stderr_warn
    )

    try:
        if args.spool is not None:
            aggregate = runner.run_spooled(
                specs, ResultSpool(args.spool), manifest=manifest
            )
        else:
            records = runner.run(specs)
    except SweepError as error:
        print(error, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # SIGINT/SIGTERM: the runner already terminated its pool workers
        # and flushed resolved records to the spool or cache; report and
        # exit with the conventional interrupted status.
        report = runner.last_report
        resolved = len(report.sources) if report is not None else 0
        where = (
            f"spooled to {args.spool} (re-run the same command to resume)"
            if args.spool is not None
            else f"resolved ({'cached for resume' if cache else 'cache disabled'})"
        )
        print(f"\n# interrupted; {resolved}/{len(specs)} specs {where}", file=sys.stderr)
        return 130

    report = runner.last_report
    assert report is not None
    if args.spool is not None:
        print(f"\n# {aggregate.summary()}")
        print(
            f"# resolved {report.total} specs in {report.wall_seconds:.2f}s: "
            f"{report.resumed} resumed, {report.cache_hits} cached, "
            f"{report.executed} executed"
            + (f", {report.skipped_lines} damaged spool lines redone"
               if report.skipped_lines else "")
        )
        return 0

    open_loop = any(record.backlog is not None for record in records)
    header = f"\n{'label':32s} {'energy kJ':>10s} {'makespan min':>13s} {'mean JCT min':>13s}"
    if open_loop:
        header += f" {'done/offered':>13s}"
    print(header)
    for spec, record in zip(specs, records):
        metrics = record.metrics
        # Overloaded open-loop grid points can finish zero jobs, where
        # mean JCT is undefined.
        jct = f"{metrics.mean_jct() / 60:13.2f}" if metrics.job_results else f"{'-':>13s}"
        line = (
            f"{spec.display_label:32s} {metrics.total_energy_kj:10.0f} "
            f"{metrics.makespan / 60:13.1f} {jct}"
        )
        if record.backlog is not None:
            line += f" {f'{record.backlog.jobs_completed}/{record.backlog.jobs_offered}':>13s}"
        elif open_loop:
            line += f" {'-':>13s}"
        print(line)
    print(
        f"\n# resolved {report.total} specs in {report.wall_seconds:.2f}s: "
        f"{report.cache_hits} cached, {report.executed} executed "
        f"({report.fell_back_serial} serial fallbacks, {report.retried} retries)"
    )
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    for path in args.spools:
        if not Path(path).exists():
            raise cli_error(f"spool {path!r} does not exist")
    manifests = [load_manifest(path) for path in args.check_manifest]
    if manifests:
        grids = {m.grid_digest for m in manifests}
        if len(grids) > 1:
            raise cli_error(
                "--check-manifest files describe different grids: "
                + ", ".join(sorted(g[:12] for g in grids))
            )

    entries = merge_spools(args.spools, out=args.out, warn=_stderr_warn)
    info = sys.stderr if args.digests else sys.stdout
    print(
        f"# merged {len(args.spools)} spool(s): {len(entries)} specs, "
        f"aggregate {aggregate_digest(entries)[:12]}",
        file=info,
    )
    if args.out:
        print(f"# merged spool written to {args.out}", file=info)

    missing: List[str] = []
    for manifest in manifests:
        absent = [h for h in manifest.spec_hashes if h not in entries]
        if absent:
            missing.extend(absent)
            print(
                f"# {manifest.display}: {len(absent)} spec(s) missing "
                f"from the merged set",
                file=sys.stderr,
            )
        else:
            print(f"# {manifest.display}: covered", file=info)

    if args.digests:
        for line in digest_listing(entries):
            print(line)

    if missing:
        for spec_hash in sorted(set(missing)):
            print(f"missing: {spec_hash}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    by_generation: dict = {}
    for entry in cache.entries():
        count, size = by_generation.get(entry.generation, (0, 0))
        by_generation[entry.generation] = (count + 1, size + entry.size_bytes)
    print(f"cache {cache.directory} (current generation v1-{cache.salt[:12]})")
    if not by_generation:
        print("  empty")
        return 0
    for generation, (count, size) in sorted(by_generation.items()):
        marker = " *" if generation == f"v1-{cache.salt[:12]}" else ""
        print(f"  {generation}  {count:6d} entries  {size / 1e6:8.1f} MB{marker}")
    total = sum(s for _, s in by_generation.values())
    entries = sum(c for c, _ in by_generation.values())
    print(f"  total       {entries:6d} entries  {total / 1e6:8.1f} MB")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    if args.max_age_days is None and args.max_size_mb is None:
        raise cli_error(
            "cache gc needs at least one bound: --max-age-days or --max-size-mb"
        )
    _non_negative_finite(args.max_age_days, "--max-age-days")
    _non_negative_finite(args.max_size_mb, "--max-size-mb")
    keep: set = set()
    for path in args.keep_manifest:
        keep.update(load_manifest(path).spec_hashes)
    report = ResultCache(args.cache_dir).gc(
        max_age_seconds=(
            args.max_age_days * 86400.0 if args.max_age_days is not None else None
        ),
        max_size_bytes=(
            int(args.max_size_mb * 1e6) if args.max_size_mb is not None else None
        ),
        keep=keep,
        dry_run=args.dry_run,
    )
    print(report.summary())
    for spec_hash in report.removed_hashes:
        verb = "would remove" if report.dry_run else "removed"
        print(f"  {verb} {spec_hash}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import TraceStats, iter_jsonl

    # Stream the file through the single-pass accumulator instead of
    # materializing every event: summarizing a multi-gigabyte trace costs
    # constant memory.  A corrupt line aborts with the same exit 2 the
    # materialized reader used.
    stats = TraceStats()
    try:
        for event in iter_jsonl(args.file):
            stats.add(event)
    except (OSError, ValueError) as error:
        raise cli_error(f"cannot read trace {args.file!r}: {error}") from None
    print(stats.summary())
    print()
    print(stats.flame())
    return 0


def _telemetry_export_format(path: str) -> Optional[str]:
    """``"npz"`` / ``"json"`` when ``path`` looks like a telemetry export.

    NPZ is decided by extension; JSON by the export-kind marker in the
    head of the file (a JSONL trace line never contains it).
    """
    from .observability.telemetry import EXPORT_KIND

    if path.endswith(".npz"):
        return "npz"
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            head = handle.read(256)
    except OSError:
        return None
    return "json" if EXPORT_KIND in head else None


def _cmd_report(args: argparse.Namespace) -> int:
    export_format = _telemetry_export_format(args.file)
    if export_format is not None:
        from .observability import (
            profile_table,
            read_telemetry_json,
            read_telemetry_npz,
            telemetry_report,
        )
        from .observability.profiler import PROFILE_TITLE

        reader = read_telemetry_npz if export_format == "npz" else read_telemetry_json
        try:
            telemetry, profile = reader(args.file)
        except (OSError, ValueError, KeyError) as error:
            raise cli_error(
                f"cannot read telemetry export {args.file!r}: {error}"
            ) from None
        if telemetry is not None:
            print(telemetry_report(telemetry, profile))
        elif profile is not None:
            print(PROFILE_TITLE)
            print(profile_table(profile))
        return 0

    from .observability import read_jsonl, report_from_trace
    from .observability.report import machine_series_from_trace

    try:
        events = read_jsonl(args.file)
    except (OSError, ValueError) as error:
        raise cli_error(f"cannot read trace {args.file!r}: {error}") from None
    # Validate up front: the sparkline timeline is the point of `report`,
    # so a snapshot-less trace is an error, not a degraded success.
    try:
        machine_series_from_trace(events)
    except ValueError as error:
        raise cli_error(f"cannot build report: {error}") from None
    print(report_from_trace(events))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .observability import (
        profile_layers,
        telemetry_report,
        write_telemetry_json,
        write_telemetry_npz,
    )
    from .observability.profiler import ProfilerBusyError

    jobs = parse_job_tokens(args.jobs)
    _positive_finite(args.interval, "--interval")
    if args.out is not None and not args.out.endswith((".npz", ".json")):
        raise cli_error(
            f"--out {args.out!r}: expected a .npz or .json destination"
        )
    _print_run_config(
        scheduler=args.scheduler,
        seed=args.seed,
        jobs=",".join(args.jobs),
        interval=args.interval,
        out=args.out,
    )
    try:
        result, profile = profile_layers(
            run_scenario,
            jobs,
            scheduler=args.scheduler,
            seed=args.seed,
            telemetry=args.interval if args.interval is not None else True,
        )
    except ProfilerBusyError as error:
        raise cli_error(f"cannot profile: {error}") from None
    assert result.telemetry is not None
    telemetry = result.telemetry.record()
    print(telemetry_report(telemetry, profile))
    if args.out:
        try:
            if args.out.endswith(".npz"):
                write_telemetry_npz(args.out, telemetry, profile)
            else:
                write_telemetry_json(args.out, telemetry, profile)
        except OSError as error:
            raise cli_error(f"cannot write export {args.out!r}: {error}") from None
        print(f"\ntelemetry export written to {args.out}")
    return 0


def _parse_process_options(tokens: List[str]) -> dict:
    """Parse repeated ``-O KEY=VALUE`` tokens into float process options."""
    options: dict = {}
    for token in tokens:
        key, sep, raw = token.partition("=")
        key = key.strip()
        if not sep or not key:
            raise cli_error(f"--option {token!r}: expected form KEY=VALUE")
        try:
            value = float(raw)
        except ValueError:
            raise cli_error(
                f"--option {token!r}: value must be a number"
            ) from None
        if key in options:
            raise cli_error(f"--option {token!r}: {key} given twice")
        options[key] = value
    return options


def _describe_trace(trace: TraceSpec, path: str) -> None:
    """The shared ``workload describe`` / post-``gen`` summary block."""
    by_app: dict = {}
    for job in trace.jobs:
        by_app[job.application] = by_app.get(job.application, 0) + 1
    span = trace.duration_s
    rate = len(trace.jobs) / span if span > 0 else float("nan")
    counts = [job.task_count for job in trace.jobs]
    print(f"trace {trace.name} ({path})")
    print(f"  digest    : {trace.trace_digest()}")
    print(
        f"  jobs      : {len(trace.jobs)} over {span:.1f}s "
        f"({rate:.4f}/s mean arrival rate)"
    )
    print(
        f"  tasks     : {trace.total_tasks} maps "
        f"(per job: min {min(counts)}, max {max(counts)}) + "
        f"{sum(job.num_reduces for job in trace.jobs)} reduces"
    )
    print(
        "  mix       : "
        + ", ".join(f"{app}={n}" for app, n in sorted(by_app.items()))
    )


def _cmd_workload_gen(args: argparse.Namespace) -> int:
    _positive_finite(args.rate, "--rate")
    _positive_finite(args.duration, "--duration")
    options = _parse_process_options(args.option)
    render_kwargs = {}
    if args.applications is not None:
        render_kwargs["applications"] = tuple(args.applications)
    if args.task_counts is not None:
        render_kwargs["task_counts"] = tuple(args.task_counts)
    try:
        process = make_process(args.process, args.rate, **options)
        trace = render_trace(
            process,
            duration_s=args.duration,
            name=args.name if args.name is not None else Path(args.out).stem,
            seed=args.seed,
            **render_kwargs,
        )
        write_trace(trace, args.out)
    except TypeError as error:
        # make_process surfaces unknown -O keys as constructor errors.
        raise cli_error(f"--process {args.process}: {error}") from None
    except OSError as error:
        raise cli_error(f"cannot write trace {args.out!r}: {error}") from None
    _describe_trace(trace, args.out)
    print(f"\ntrace written to {args.out}")
    return 0


def _cmd_workload_validate(args: argparse.Namespace) -> int:
    trace = load_trace(args.file)
    print(f"ok: {args.file}: {len(trace.jobs)} jobs, digest {trace.ref().short_digest}")
    return 0


def _cmd_workload_describe(args: argparse.Namespace) -> int:
    _describe_trace(load_trace(args.file), args.file)
    return 0


def _validate_serve(args: argparse.Namespace) -> None:
    if args.nodes is not None and args.nodes < 1:
        raise cli_error(f"--nodes must be at least 1 (got {args.nodes})")
    if args.port is not None and not (0 <= args.port <= 65535):
        raise cli_error(f"--port must be in [0, 65535] (got {args.port})")
    if args.socket is not None and args.port is not None:
        raise cli_error("--socket and --port are mutually exclusive")
    _positive_finite(args.time_scale, "--time-scale")
    _positive_finite(args.loadgen, "--loadgen")
    _positive_finite(args.duration, "--duration")
    if args.connections < 1:
        raise cli_error(f"--connections must be at least 1 (got {args.connections})")
    _positive_finite(args.service_time, "--service-time")
    if args.trace is not None and args.bench:
        raise cli_error("--trace is not supported under --bench (fixed workload)")
    if args.trace is not None and args.loadgen is None:
        raise cli_error("--trace needs --loadgen (it replaces its submit schedule)")
    if args.bench_out is not None and not args.bench_out.endswith(".json"):
        raise cli_error(f"--bench-out {args.bench_out!r}: expected a .json destination")
    if args.bench_out is not None and not (args.bench or args.loadgen is not None):
        raise cli_error("--bench-out needs --bench or --loadgen (nothing to measure)")


def _emit_summary(summary: dict, path: Optional[str]) -> int:
    """Print a ``--loadgen``/``--bench`` summary, also to ``--bench-out``."""
    text = json.dumps(summary, indent=2)
    print(text)
    if path:
        try:
            Path(path).write_text(text + "\n", encoding="utf-8")
        except OSError as error:
            raise cli_error(f"cannot write {path!r}: {error}") from None
        print(f"# summary written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    _validate_serve(args)
    load_mode = args.bench or args.loadgen is not None
    # Real time for a long-lived daemon; compressed time under load
    # generation so the paper's 300 s control interval fires within a
    # seconds-long run.
    time_scale = args.time_scale if args.time_scale is not None else (
        600.0 if load_mode else 1.0
    )

    from .serve import (
        MAX_LINE_BYTES,
        LoadGenerator,
        ServeDaemon,
        ServeEngine,
        fleet_tracker_infos,
        run_serve_benchmark,
    )
    from .serve.bench import DEFAULT_BENCH

    if args.bench:
        summary = run_serve_benchmark(
            rate=args.loadgen if args.loadgen is not None else DEFAULT_BENCH["rate"],
            duration=args.duration,
            scheduler=args.scheduler,
            seed=args.seed,
            nodes=args.nodes,
            connections=args.connections,
            service_time=args.service_time,
            time_scale=time_scale,
        )
        return _emit_summary(summary, args.bench_out)

    engine = ServeEngine(
        scheduler=args.scheduler,
        seed=args.seed,
        nodes=args.nodes,
        trust_wire_now=False,
    )
    daemon = ServeDaemon(
        engine,
        host=args.host,
        port=(args.port if args.port is not None else (0 if load_mode else 7077)),
        path=args.socket,
        time_scale=time_scale,
    )

    if args.loadgen is not None:
        # In-process smoke: daemon and loadgen share this event loop.
        # Client and server contend for one interpreter, so this measures
        # correctness and rough latency; `--bench` isolates the daemon in
        # a subprocess for the honest throughput number.
        generator = LoadGenerator(
            rate=args.loadgen,
            duration=args.duration,
            trackers=fleet_tracker_infos(args.nodes, args.seed),
            connections=args.connections,
            service_time=args.service_time,
            time_scale=time_scale,
            trace=load_trace(args.trace) if args.trace else None,
        )

        async def _run_loadgen() -> dict:
            await daemon.start()

            async def open_connection():
                if args.socket is not None:
                    return await asyncio.open_unix_connection(
                        args.socket, limit=MAX_LINE_BYTES
                    )
                return await asyncio.open_connection(
                    args.host, daemon.bound_port, limit=MAX_LINE_BYTES
                )

            stats = await generator.run(open_connection)
            daemon.request_stop()
            await daemon.wait_stopped()
            return stats.summary()

        return _emit_summary(asyncio.run(_run_loadgen()), args.bench_out)

    async def _run_daemon() -> dict:
        await daemon.start()
        daemon.install_signal_handlers()
        print(
            f"# serving {args.scheduler} on {daemon.address} "
            f"(time scale {time_scale:g}x; Ctrl-C or SIGTERM to stop)",
            flush=True,
        )
        return await daemon.wait_stopped()

    try:
        final = asyncio.run(_run_daemon())
    except OSError as error:
        raise cli_error(f"cannot bind {daemon.address}: {error}") from None
    print(json.dumps(final, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, ShardError, TraceError) as error:
        # The one rendering point for every input-validation failure:
        # `file:line: error: message` on stderr, exit status 2.
        # (ShardError covers corrupt/mismatched manifest files, whose
        # messages already carry the offending path; TraceError carries
        # the `file:line` of the offending trace row, which is more
        # useful than any call site's.)
        print(error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro trace out.jsonl | head` closes stdout mid-print; exit
        # quietly like a well-behaved filter.  Point stdout at /dev/null
        # so the interpreter's shutdown flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
