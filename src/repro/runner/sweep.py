"""Parallel sweep execution over lists of :class:`ScenarioSpec`.

:class:`SweepRunner` fans a list of specs out over a ``multiprocessing``
pool with per-task retry and timeout, falls back to in-process serial
execution whenever the pool misbehaves (a worker crash, a fork failure, a
sandboxed environment without shared-memory semaphores), and resolves
specs through a content-addressed :class:`~repro.runner.cache.ResultCache`
first when one is attached.

Because every run rebuilds its simulator and RNG streams from the spec's
seed, serial execution, pool execution, and cache restoration all produce
bit-identical :class:`~repro.metrics.RunMetrics` for the same spec — the
common-random-numbers guarantee survives the process boundary.

Progress streams through the observability layer: attach a
:class:`~repro.observability.Tracer` and each resolved spec emits a
``sweep.task`` event (plus a final ``sweep.summary``); attach a
``progress`` callable to get human-readable one-liners.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import EventType, Tracer
from .cache import ResultCache
from .record import RunRecord, build_record, take_line
from .shard import ShardManifest
from .spec import ScenarioSpec
from .spool import ResultSpool, SweepAggregate

__all__ = ["SweepRunner", "SweepError", "SweepReport", "resolve_specs"]


def resolve_specs(
    specs: Sequence[ScenarioSpec],
    runner: Optional["SweepRunner"] = None,
) -> List[RunRecord]:
    """Resolve a spec list through ``runner``, or serially in-process.

    The figure harnesses call this with their optional ``runner``
    argument: ``None`` preserves the historical serial, uncached behavior
    exactly; passing a :class:`SweepRunner` buys parallelism and caching
    without touching the harness code.
    """
    if runner is None:
        return [spec.run_record() for spec in specs]
    return runner.run(specs)

ProgressFn = Callable[[str], None]


class SweepError(RuntimeError):
    """A spec failed even after retries and the serial fallback."""

    def __init__(self, spec: ScenarioSpec, cause: BaseException) -> None:
        super().__init__(
            f"spec {spec.display_label} ({spec.short_hash}) failed: {cause!r}"
        )
        self.spec = spec
        self.cause = cause


def _execute_record_worker(spec: ScenarioSpec) -> RunRecord:
    """Pool entry point: run one spec, return its portable record."""
    start = time.perf_counter()
    result = spec.run()
    return build_record(spec, result, wall_seconds=time.perf_counter() - start)


def _pool_worker_init() -> None:
    """Reset signal disposition in pool workers.

    Workers fork with the parent's handlers installed: without this,
    ``Pool.terminate()``'s SIGTERM would fire the parent's
    raise-KeyboardInterrupt handler inside every worker (a traceback per
    worker on every Ctrl-C), and a terminal's session-wide SIGINT would
    race the parent's orchestrated teardown.  The parent alone owns
    interruption; workers die quietly when told to.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass
class SweepReport:
    """Accounting of one :meth:`SweepRunner.run` invocation."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    fell_back_serial: int = 0
    #: Specs restored from an existing spool during resume reconciliation.
    resumed: int = 0
    #: Spool lines skipped during resume (damaged or duplicate).
    skipped_lines: int = 0
    wall_seconds: float = 0.0
    #: index -> "cache" | "parallel" | "serial" | "spool"
    sources: Dict[int, str] = field(default_factory=dict)


@dataclass
class SweepRunner:
    """Execute spec lists, in parallel, with caching and retry.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses ``os.cpu_count()``, ``1`` runs serially
        in-process (no pool, no pickling).
    cache:
        A :class:`ResultCache` to consult/populate, or ``None`` for no
        caching (the default — figure harnesses opt in explicitly).
    retries:
        How many *additional* attempts a failed spec gets (in the parent
        process, serially) before the sweep raises :class:`SweepError`.
    task_timeout:
        Seconds to wait for one pool task before treating it as failed
        and re-running it serially; ``None`` waits forever.
    tracer:
        Optional observability sink for ``sweep.task`` / ``sweep.summary``
        events (wall-clock timestamps relative to sweep start).
    progress:
        Optional callable receiving one human-readable line per resolved
        spec (the CLI passes ``print``).
    warn:
        Optional callable for resume-reconciliation diagnostics (damaged
        spool lines, foreign entries); the CLI points it at stderr.
    """

    workers: Optional[int] = None
    cache: Optional[ResultCache] = None
    retries: int = 1
    task_timeout: Optional[float] = None
    tracer: Optional[Tracer] = None
    progress: Optional[ProgressFn] = None
    warn: Optional[ProgressFn] = None

    def __post_init__(self) -> None:
        if self.workers is None:
            self.workers = os.cpu_count() or 1
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        self.last_report: Optional[SweepReport] = None

    # ------------------------------------------------------------- plumbing
    def _emit(
        self,
        started: float,
        index: int,
        total: int,
        spec: ScenarioSpec,
        source: str,
        seconds: float,
        report: SweepReport,
    ) -> None:
        """One progress line / trace event per *resolved* spec.

        Lines carry live sweep state — completed/total, cache-hit rate so
        far, this spec's wall time, and a throughput-extrapolated ETA
        (elapsed ÷ completed × remaining; the parallel path's completion
        order already folds pool concurrency into the throughput).
        """
        completed = len(report.sources)
        elapsed = time.perf_counter() - started
        remaining = total - completed
        eta = elapsed / completed * remaining if completed else 0.0
        hit_rate = report.cache_hits / completed if completed else 0.0
        if self.tracer is not None:
            self.tracer.emit(
                EventType.SWEEP_TASK,
                elapsed,
                index=index,
                total=total,
                completed=completed,
                label=spec.display_label,
                spec_hash=spec.short_hash,
                source=source,
                seconds=round(seconds, 6),
                cache_hits=report.cache_hits,
                eta_seconds=round(eta, 3),
            )
        if self.progress is not None:
            self.progress(
                f"[{completed}/{total}] {spec.display_label:32s} "
                f"{source:8s} {seconds:7.2f}s  "
                f"cache {hit_rate * 100:3.0f}%  eta {eta:6.0f}s"
            )

    def _run_serial_one(
        self, spec: ScenarioSpec, report: Optional[SweepReport] = None
    ) -> RunRecord:
        """One spec with retries, in-process."""
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt and report is not None:
                report.retried += 1
            try:
                return _execute_record_worker(spec)
            except Exception as error:  # deterministic failures rarely heal,
                last_error = error  # but retry covers transient ones (OOM, signals)
        # Chain explicitly: by the time we raise we are outside the except
        # block, so without ``from`` the worker's traceback would be lost
        # and the failure would surface as a bare SweepError with no clue
        # where inside the scenario it blew up.
        raise SweepError(spec, last_error) from last_error  # type: ignore[arg-type]

    def _run_pool(
        self,
        pending: List[Tuple[int, ScenarioSpec]],
        on_record: Callable[[int, ScenarioSpec, RunRecord, str, float], None],
        report: SweepReport,
    ) -> List[Tuple[int, ScenarioSpec]]:
        """Fan ``pending`` out over a pool; return what still needs serial.

        Each completed record is handed to ``on_record`` (which caches,
        stores or spools, and reports it) as soon as its result is
        collected, and submission is window-bounded (a few tasks per
        worker in flight), so the pool path holds O(workers) records
        regardless of grid size — the memory contract spooled 10k-spec
        sweeps rely on.
        """
        leftovers: List[Tuple[int, ScenarioSpec]] = []
        resolved: set = set()
        processes = min(self.workers or 1, len(pending))
        window = max(8, 4 * processes)
        try:
            with multiprocessing.Pool(
                processes=processes, initializer=_pool_worker_init
            ) as pool:
                in_flight: deque = deque()

                def collect_oldest() -> None:
                    index, spec, handle = in_flight.popleft()
                    try:
                        record = handle.get(timeout=self.task_timeout)
                    except Exception:
                        # Worker crash, timeout, or unpicklable failure:
                        # this spec goes to the serial fallback.
                        leftovers.append((index, spec))
                        return
                    resolved.add(index)
                    report.executed += 1
                    report.sources[index] = "parallel"
                    on_record(index, spec, record, "parallel", record.wall_seconds)

                for index, spec in pending:
                    in_flight.append(
                        (index, spec, pool.apply_async(_execute_record_worker, (spec,)))
                    )
                    if len(in_flight) >= window:
                        collect_oldest()
                while in_flight:
                    collect_oldest()
        except Exception:
            # The pool itself failed (fork refused, semaphores unavailable,
            # broken pipe on teardown): degrade gracefully to serial for
            # everything not already resolved.
            leftovers = [(i, s) for i, s in pending if i not in resolved]
        return leftovers

    def _resolve(
        self,
        specs: List[ScenarioSpec],
        report: SweepReport,
        started: float,
        sink: Callable[[int, RunRecord, Optional[str]], None],
        **summary: int,
    ) -> None:
        """Resolve every spec not yet in ``report.sources``, in order.

        The one resolution loop behind :meth:`run` and
        :meth:`run_spooled`: cache, then pool, then serial fallback.  Each
        record lands the moment it resolves — into the cache (unless it
        came from there), then ``sink(index, record, line)``, then the
        progress line — so an interrupt or a :class:`SweepError` loses
        nothing already resolved.  ``line`` is the cache entry's text, which
        :meth:`ResultCache.put` or :meth:`ResultCache.get` left on the
        record (``None`` without a cache); it is taken off the record here.
        Caching before the sink matters for spooled sweeps: if the spool
        append is the crash point (the resilience rig's kill hook lives
        there), the result is already durable in the cache for the resumed
        run.

        SIGTERM is mapped onto ``KeyboardInterrupt`` for the duration
        (main thread only) so both signals take the same path: pool
        workers are terminated on the way out (the ``Pool`` context
        manager handles that) and the exception propagates.  On every
        exit ``report.wall_seconds`` is set and ``last_report`` is
        ``report``.  ``summary`` adds fields to the ``sweep.summary``
        trace event.
        """
        total = len(specs)

        def land(
            index: int, spec: ScenarioSpec, record: RunRecord,
            source: str, seconds: float,
        ) -> None:
            if self.cache is not None and source != "cache":
                self.cache.put(spec, record)
            sink(index, record, take_line(record))
            self._emit(started, index, total, spec, source, seconds, report)

        previous_sigterm = None
        if threading.current_thread() is threading.main_thread():
            def _on_sigterm(signum, frame):  # pragma: no cover - signal path
                raise KeyboardInterrupt
            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)

        try:
            pending: List[Tuple[int, ScenarioSpec]] = []
            for index, spec in enumerate(specs):
                if index in report.sources:
                    continue  # restored before the loop (a resumed spool)
                cached = self.cache.get(spec) if self.cache is not None else None
                if cached is not None:
                    report.cache_hits += 1
                    report.sources[index] = "cache"
                    land(index, spec, cached, "cache", 0.0)
                else:
                    pending.append((index, spec))

            if (self.workers or 1) > 1 and len(pending) > 1:
                pending = self._run_pool(pending, land, report)
                report.fell_back_serial = len(pending)

            for index, spec in pending:
                attempt_started = time.perf_counter()
                record = self._run_serial_one(spec, report)
                report.executed += 1
                report.sources[index] = "serial"
                land(index, spec, record, "serial", time.perf_counter() - attempt_started)
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            report.wall_seconds = time.perf_counter() - started
            self.last_report = report

        if self.tracer is not None:
            self.tracer.emit(
                EventType.SWEEP_SUMMARY,
                report.wall_seconds,
                total=report.total,
                cache_hits=report.cache_hits,
                executed=report.executed,
                **summary,
                serial_fallbacks=report.fell_back_serial,
                wall_seconds=round(report.wall_seconds, 6),
            )

    # ------------------------------------------------------------------ API
    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunRecord]:
        """Resolve every spec (cache, pool, then serial fallback), in order.

        The returned list is index-aligned with ``specs``.  Raises
        :class:`SweepError` if any spec still fails after retries; records
        resolved before the failure are already in the cache.

        SIGINT and SIGTERM interrupt the sweep cleanly: pool workers are
        terminated, already-resolved records are in the cache (each is
        cached as it resolves), and ``KeyboardInterrupt`` propagates to
        the caller.
        """
        specs = list(specs)
        started = time.perf_counter()
        results: List[Optional[RunRecord]] = [None] * len(specs)

        def store(index: int, record: RunRecord, line: Optional[str]) -> None:
            results[index] = record

        self._resolve(specs, SweepReport(total=len(specs)), started, store)
        return results  # type: ignore[return-value]

    def run_spooled(
        self,
        specs: Sequence[ScenarioSpec],
        spool: ResultSpool,
        manifest: Optional[ShardManifest] = None,
    ) -> SweepAggregate:
        """Resolve specs *through a spool*: streaming, resumable, O(1) memory.

        Every record is flushed to ``spool`` (and the cache, when one is
        attached) the moment it completes and then dropped — nothing
        accumulates in this process, so peak memory is flat in grid size.
        On entry, an existing spool is reconciled first: valid entries for
        specs of this grid are folded into the aggregate and **not**
        re-executed; damaged or truncated lines (a SIGKILL mid-write) are
        skipped with a warning and their specs re-run.  Running the same
        sweep against the same spool twice is therefore idempotent, and a
        sweep killed at any point resumes where it died.

        Duplicate specs (same hash) collapse — a spooled result set is a
        set.  Returns the incremental :class:`SweepAggregate`; the records
        themselves live in the spool (reassemble with
        :func:`~repro.runner.spool.merge_spools`).

        ``manifest`` is presentation/observability metadata: when given, a
        ``sweep.shard`` trace event announces the shard coordinates.
        """
        by_hash: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            by_hash.setdefault(spec.spec_hash(), spec)
        specs = list(by_hash.values())
        hash_to_index = {h: i for i, h in enumerate(by_hash)}
        total = len(specs)
        started = time.perf_counter()
        report = SweepReport(total=total)
        aggregate = SweepAggregate()

        def warn(line: str) -> None:
            report.skipped_lines += 1
            if self.warn is not None:
                self.warn(line)

        if self.tracer is not None and manifest is not None:
            self.tracer.emit(
                EventType.SWEEP_SHARD,
                0.0,
                grid_digest=manifest.grid_digest,
                shard_index=manifest.shard_index,
                shard_count=manifest.shard_count,
                shard_specs=len(manifest.spec_hashes),
                grid_size=manifest.grid_size,
            )

        # ---------------------------------------- resume reconciliation
        foreign = 0
        for spec_hash, digest, record in spool.scan(warn):
            index = hash_to_index.get(spec_hash)
            if index is None:
                foreign += 1
                if self.warn is not None:
                    self.warn(
                        f"{spool.path}: warning: spooled spec "
                        f"{spec_hash[:12]} is not in this grid; ignored"
                    )
                continue
            aggregate.add(record, digest)
            report.resumed += 1
            report.sources[index] = "spool"
            self._emit(started, index, total, specs[index], "spool", 0.0, report)
        if self.tracer is not None and (
            report.resumed or report.skipped_lines or foreign
        ):
            self.tracer.emit(
                EventType.SWEEP_RESUME,
                time.perf_counter() - started,
                resumed=report.resumed,
                skipped_lines=report.skipped_lines,
                foreign=foreign,
                remaining=total - len(report.sources),
            )

        def append(index: int, record: RunRecord, line: Optional[str]) -> None:
            aggregate.add(record, spool.append(record, line))

        try:
            self._resolve(specs, report, started, append, resumed=report.resumed)
        finally:
            spool.close()
        return aggregate
