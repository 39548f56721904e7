"""The E-Ant adaptive task assigner (Sections III-IV).

E-Ant treats each job's map tasks and reduce tasks as ant colonies and
each (colony, machine) pair as a path whose pheromone encodes observed
energy efficiency.  Assignment on each TaskTracker heartbeat follows
Eq. 8 — pheromone attractiveness times the fairness heuristic — with two
paper-faithful behaviours:

* **Locality short-circuit**: with ``beta > 0`` a node-local pending map
  always wins the slot (Eq. 7's infinite-eta branch).  With ``beta = 0``
  only this short-circuit is skipped: the job is then sampled without
  regard to locality, but ``_take`` still takes that job's map
  node-local-first (``take_map(prefer_local=True)``).  Locality never
  fully disappears, so the Fig. 12(a) energy dip at beta = 0 does not
  reproduce (a known deviation, recorded in EXPERIMENTS.md).
* **Gated acceptance**: a slot on machine ``m`` is granted to the sampled
  colony only with probability proportional to ``m``'s pheromone relative
  to the colony's best machine, so energy-inefficient machines are left
  partially idle rather than greedily filled.  This is the mechanism that
  converts heterogeneity awareness into the Fig. 8(a) energy savings.
  During the first control interval no feedback exists yet, so E-Ant
  "initially follows Hadoop's default behavior" (Section III-A) and fills
  slots unconditionally.

Every control interval (default 5 min) the pheromone table is updated from
the task analyzer's Eq. 2 energy estimates via Eqs. 4-6 with the
configured exchange strategies.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..hadoop.job import Job, Task, TaskKind, TaskReport
from ..hadoop.tasktracker import TrackerStatus
from ..observability.tracer import EventType
from ..schedulers.base import Scheduler
from .analyzer import TaskAnalyzer
from .convergence import ConvergenceDetector
from .floatsum import pairwise_sum
from .heuristics import FairnessView, fairness_eta
from .pheromone import ExchangeLevel, PheromoneTable

__all__ = ["EAntConfig", "EAntScheduler"]


def sample_index(weights: List[float], total: float, draw: float) -> int:
    """The index ``Generator.choice(len(weights), p=weights / total)`` picks
    for the uniform ``draw``, on Python floats.

    The CDF is built as ``(weights / total).cumsum()`` builds it (one
    division per weight, then a left-to-right running sum), divided by its
    last entry, and searched as ``searchsorted(side="right")`` searches.
    The result can equal ``len(weights)`` only when rounding leaves the
    last CDF entry at or below ``draw``; callers clamp it.
    """
    running = 0.0
    cdf = []
    for weight in weights:
        running += weight / total
        cdf.append(running)
    last = cdf[-1]
    return bisect_right([value / last for value in cdf], draw)


@dataclass(frozen=True)
class EAntConfig:
    """Tuning parameters of E-Ant.

    Parameters
    ----------
    beta:
        Weight of the heuristic (locality + fairness) term in Eq. 8.
        The paper's sensitivity analysis (Fig. 12(a)) peaks energy saving
        at ~0.1 and fairness grows with beta.  beta = 0 disables both the
        locality short-circuit and the fairness term entirely, exactly as
        the paper describes.
    beta_reference:
        The beta value at which the heuristic term enters with exponent 1
        (so the default beta equals the paper's recommended 0.1 operating
        point); the effective exponent is ``beta / beta_reference``.
    rho:
        Pheromone evaporation coefficient (Eq. 4).
    negative_feedback:
        Weight of the Eq. 6 cross-job term, applied against the *mean* of
        the competing colonies' deposits (0 disables; ablation knob).
    exchange:
        Active information-exchange strategies (Fig. 10's four settings).
    gating:
        Whether gated acceptance is applied at all.  Disabled gives an
        accept-first-sample variant (ablation knob).
    work_conserving:
        Whether a slot whose sampled candidates all rejected it is filled
        with the best candidate anyway while work is pending.  True by
        default; False restores strict gating, which idles slots and
        trades completion time for dynamic energy (ablation knob).
    fallback_quality_floor:
        Minimum relative machine quality for the work-conserving fallback.
        0 (default) never idles a slot while work pends; positive values
        let E-Ant keep machines idle that are this unattractive for every
        sampled colony, trading completion time for dynamic energy (the
        strict-gating ablation).
    gating_sharpness:
        Exponent applied to the relative machine quality in the acceptance
        probability.  The paper specifies assignment *probabilities*
        (Eq. 8) but not the slot-level acceptance mechanism; the exponent
        controls how aggressively below-best machines are left idle.
    min_acceptance:
        Floor of the gated-acceptance probability, guaranteeing progress
        even on the least attractive machine.
    candidates_per_slot:
        How many colonies are sampled for one slot before it is left
        idle — a rejected slot is offered to other colonies first.
    deterministic_selection:
        Replace probabilistic sampling with argmax over the Eq. 8 weights.
        Sampling noise in queue service order costs measurable completion
        time versus the Fair Scheduler's deterministic deficit ordering;
        argmax removes it while pheromone dynamics retain exploration.
    deficit_power:
        Exponent on the slot-deficit factor in sampling weights.  Above 1
        lets a starved job's deficit overpower the pheromone matching, so
        a job type whose favorite machines cover less capacity than its
        share of the work still drains steadily through overflow machines.
    selection_sharpness:
        Exponent on the pheromone attractiveness in the cross-job slot
        competition for MAP slots, analogous to ACO's alpha exponent;
        values above 1 sharpen the job-to-machine matching.  Reduce-slot
        competition always uses the literal Eq. 8 weight (exponent 1):
        reduce colonies see far fewer completions per interval, and
        sharpening that noisier evidence steers shuffle-heavy reduces onto
        slow machines during the reduce-bound drain phase.
    convergence_threshold:
        Revisit fraction defining a stable assignment (Section VI-C: 80 %).
    tau_min, tau_max:
        Pheromone clamps.
    """

    beta: float = 0.1
    beta_reference: float = 0.1
    rho: float = 0.5
    negative_feedback: float = 0.3
    exchange: ExchangeLevel = ExchangeLevel.BOTH
    gating: bool = True
    gating_sharpness: float = 3.0
    work_conserving: bool = True
    fallback_quality_floor: float = 0.0
    min_acceptance: float = 0.05
    candidates_per_slot: int = 3
    selection_sharpness: float = 2.0
    deficit_power: float = 2.0
    deterministic_selection: bool = False
    convergence_threshold: float = 0.8
    tau_min: float = 0.05
    tau_max: float = 1e9

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.gating_sharpness <= 0:
            raise ValueError("gating_sharpness must be positive")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if not 0.0 <= self.min_acceptance <= 1.0:
            raise ValueError("min_acceptance must be in [0, 1]")
        if self.candidates_per_slot < 1:
            raise ValueError("candidates_per_slot must be >= 1")

    def with_exchange(self, exchange: ExchangeLevel) -> "EAntConfig":
        """Copy with a different exchange setting (Fig. 10 sweeps)."""
        return replace(self, exchange=exchange)


class EAntScheduler(Scheduler):
    """Heterogeneity-aware, energy-driven ACO task assignment."""

    name = "e-ant"

    def __init__(
        self,
        config: EAntConfig = EAntConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.pheromones: Optional[PheromoneTable] = None
        self.analyzer: Optional[TaskAnalyzer] = None
        self.convergence = ConvergenceDetector(threshold=config.convergence_threshold)
        self.intervals_elapsed = 0
        #: (time, colony, machine_id) of every launch (adaptiveness figures)
        self.assignment_log: List[Tuple[float, Hashable, int]] = []
        #: slot-offer telemetry: offered/filled/idled per task kind
        self.slot_stats: Dict[str, int] = {
            "map_offered": 0,
            "map_filled": 0,
            "map_no_work": 0,
            "reduce_offered": 0,
            "reduce_filled": 0,
            "reduce_no_work": 0,
        }

    # ------------------------------------------------------------- lifecycle
    def bind(self, jobtracker) -> None:
        super().bind(jobtracker)
        cluster = jobtracker.cluster
        groups = list(cluster.homogeneous_groups().values())
        self.pheromones = PheromoneTable(
            machine_ids=cluster.machine_ids,
            rho=self.config.rho,
            negative_feedback=self.config.negative_feedback,
            machine_groups=groups,
            exchange=self.config.exchange,
            tau_min=self.config.tau_min,
            tau_max=self.config.tau_max,
        )
        self.analyzer = TaskAnalyzer(cluster)
        # Convergence is tracked at hardware-group granularity: exchange
        # treats same-type machines as interchangeable, so "revisiting the
        # same machines" (Section VI-C) means revisiting the same types.
        self._machine_group = {
            machine_id: signature
            for signature, ids in cluster.homogeneous_groups().items()
            for machine_id in ids
        }
        # The audit path reuses cached slot totals instead of re-walking
        # the cluster on every traced decision; fleet changes (join /
        # decommission) refresh the cache via the machine hooks below.
        self._static_slot_totals = cluster.total_slots()
        jobtracker.start_control_loop()

    def on_machine_added(self, machine) -> None:
        """Seed pheromone paths to a machine that joined mid-run.

        The new machine's rows start at the table's prior — no evidence
        yet, exactly like every path at t=0 — and its hardware group is
        extended so machine-level exchange immediately shares the group's
        experience with it.
        """
        assert self.pheromones is not None and self.analyzer is not None
        group = self.jt.cluster.group_of(machine.machine_id)
        self.pheromones.add_machine(machine.machine_id, group)
        self.analyzer.add_machine(machine)
        signature = machine.spec.hardware_signature()
        for member in group:
            self._machine_group[member] = signature
        self._static_slot_totals = self.jt.cluster.total_slots()

    def on_machine_removed(self, machine) -> None:
        """Prune stale pheromone paths to a decommissioned machine."""
        assert self.pheromones is not None
        self.pheromones.remove_machine(machine.machine_id)
        self._static_slot_totals = self.jt.cluster.total_slots()

    def on_job_added(self, job: Job) -> None:
        assert self.pheromones is not None
        signature = job.resource_signature
        self.pheromones.ensure_colony(
            (job.job_id, TaskKind.MAP), group=(signature, TaskKind.MAP)
        )
        if job.num_reduces:
            self.pheromones.ensure_colony(
                (job.job_id, TaskKind.REDUCE), group=(signature, TaskKind.REDUCE)
            )

    def on_job_removed(self, job: Job) -> None:
        assert self.pheromones is not None
        self.pheromones.drop_colony((job.job_id, TaskKind.MAP))
        self.pheromones.drop_colony((job.job_id, TaskKind.REDUCE))

    def on_task_completed(self, report: TaskReport) -> None:
        assert self.analyzer is not None
        self.analyzer.observe(report)

    def on_control_interval(self, now: float) -> None:
        """The adaptive step: pheromone update from the interval's feedback."""
        assert self.analyzer is not None and self.pheromones is not None
        feedback = self.analyzer.drain()
        self.pheromones.update(feedback)
        # Feedback for jobs that finished mid-interval resurrects their
        # colonies just long enough to fold their experience into group
        # profiles; drop those zombies now.
        active_keys = set()
        for job in self.jt.active_jobs:
            active_keys.add((job.job_id, TaskKind.MAP))
            active_keys.add((job.job_id, TaskKind.REDUCE))
        for colony in self.pheromones.colonies:
            if colony not in active_keys:
                self.pheromones.drop_colony(colony)
        self.convergence.close_interval(now)
        self.intervals_elapsed += 1
        if self.tracer.enabled:
            for colony in self.pheromones.colonies:
                job_id, kind = colony
                self.tracer.emit(
                    EventType.PHEROMONE_UPDATE,
                    now,
                    interval=self.intervals_elapsed,
                    job_id=job_id,
                    kind=kind.value,
                    feedback_tasks=sum(1 for f in feedback if f.colony == colony),
                    tau={m: v for m, v in self.pheromones.attractiveness_row(colony).items()},
                )

    # ------------------------------------------------------------ assignment
    def may_assign(self) -> bool:
        return self.has_assignable_work()

    def select_tasks(self, status: TrackerStatus) -> List[Task]:
        assignments: List[Task] = []
        stats = self.slot_stats
        fairness: Optional[FairnessView] = None
        # The candidate list is rebuilt only after a *successful*
        # assignment (an accepted task changes pending/running counts for
        # the next slot); a rejected or idled offer leaves every job's
        # state and the list contents untouched, so the same list is
        # offered to the tracker's remaining slots.  At thousand-node
        # fleets most heartbeats find no pending work, and that common
        # case now costs one list comprehension instead of one per slot.
        machine_id = status.machine_id
        if status.free_map_slots:
            pending = self.jobs_with_pending_maps()
            for _ in range(status.free_map_slots):
                stats["map_offered"] += 1
                if not pending:
                    stats["map_no_work"] += 1
                    continue
                if fairness is None:
                    fairness = self._fairness_view()
                task = self._fill_map_slot(machine_id, fairness, pending)
                if task is not None:
                    stats["map_filled"] += 1
                    assignments.append(task)
                    pending = self.jobs_with_pending_maps()
        if status.free_reduce_slots:
            schedulable = self.jobs_with_schedulable_reduces()
            for _ in range(status.free_reduce_slots):
                stats["reduce_offered"] += 1
                if not schedulable:
                    stats["reduce_no_work"] += 1
                    continue
                if fairness is None:
                    fairness = self._fairness_view()
                task = self._fill_reduce_slot(machine_id, fairness, schedulable)
                if task is not None:
                    stats["reduce_filled"] += 1
                    assignments.append(task)
                    schedulable = self.jobs_with_schedulable_reduces()
        return assignments

    def _fairness_view(self) -> FairnessView:
        """The Eq. 7 snapshot, built lazily on the first slot with work.

        Job completions happen on task-finish events, never inside a
        heartbeat's assignment loop, so one snapshot per heartbeat sees
        the same pool and active-job count every slot reads.
        """
        return FairnessView(
            pool_slots=self.total_cluster_slots(),
            active_jobs=max(1, len(self.jt.active_jobs)),
        )

    # --------------------------------------------------------------- helpers
    def _eta(self, job: Job, kind: TaskKind, fairness: FairnessView) -> float:
        """The Eq. 7 fairness heuristic raised to the Eq. 8 exponent.

        The heuristic combines the paper's eta with the quantitative slot
        deficit (see ``_deficit``); ``beta`` scales its overall influence,
        normalized so that ``beta == beta_reference`` gives exponent 1.
        """
        if self.config.beta == 0:
            return 1.0
        term = fairness.eta(job.occupied_slots) * self._deficit(job, kind) ** (
            self.config.deficit_power
        )
        return term ** (self.config.beta / self.config.beta_reference)

    def _deficit(self, job: Job, kind: TaskKind) -> float:
        """How far the job is below its per-kind fair share, >= 0.5.

        Multiplying the Eq. 8 sampling weight by the slot deficit serves
        the most-starved jobs first in expectation — the quantitative form
        of Eq. 7's 'the higher the degree of unfairness, the greater the
        need to schedule the tasks belonging to this job'.  The floor
        keeps at-share jobs sampleable."""
        map_slots, reduce_slots = self.jt.cluster.total_slots()
        pool = map_slots if kind is TaskKind.MAP else reduce_slots
        share = pool / max(1, len(self.jt.active_jobs))
        running = job.running_maps if kind is TaskKind.MAP else job.running_reduces
        return max(share - running, 0.5)

    def _selection_arrays(
        self,
        jobs: List[Job],
        kind: TaskKind,
        machine_id: int,
        fairness: FairnessView,
    ) -> Tuple[List[float], List[float]]:
        """Per-candidate pheromone attractiveness and Eq. 8 sampling weight.

        One pass over the candidates of the slot offer, on Python floats:
        a slot offer has about six candidates, too few for numpy calls to
        pay for themselves.  The Eq. 3 attractiveness is read from the
        pheromone table's memoized normalized rows, and eta/deficit/weight
        (Eqs. 7-8) go through the same float operations in the same order
        as the per-job reference (``_reference_selection_arrays``), so the
        sampling probabilities — and therefore the RNG draws — are
        bit-identical.

        The tau list rides along so the decision audit can decompose the
        weights without re-normalizing the pheromone rows.
        """
        pheromones = self.pheromones
        assert pheromones is not None
        is_map = kind is TaskKind.MAP
        sharpness = self.config.selection_sharpness if is_map else 1.0
        taus = pheromones.normalized_column([(job.job_id, kind) for job in jobs], machine_id)
        if self.config.beta == 0:
            return taus, [tau**sharpness * 1.0 for tau in taus]
        pool_slots = fairness.pool_slots
        if pool_slots <= 0:
            raise ValueError("pool must have slots")
        min_share = fairness.min_share
        jt = self.jt
        map_slots, reduce_slots = jt.cluster.total_slots()
        share = (map_slots if is_map else reduce_slots) / max(1, len(jt.active_jobs))
        power = self.config.deficit_power
        exponent = self.config.beta / self.config.beta_reference
        weights = []
        for job, tau in zip(jobs, taus):
            # Eq. 7 (fairness_eta) and the slot deficit (_deficit), inlined,
            # with Job.occupied_slots spelled out.
            running_maps = job.running_maps
            running_reduces = job.running_reduces
            denominator = 1.0 - (min_share - (running_maps + running_reduces)) / pool_slots
            if denominator < 1e-3:
                denominator = 1e-3
            deficit = share - (running_maps if is_map else running_reduces)
            if deficit < 0.5:
                deficit = 0.5
            weights.append(tau**sharpness * ((1.0 / denominator) * deficit**power) ** exponent)
        return taus, weights

    def _selection_weights(
        self,
        jobs: List[Job],
        kind: TaskKind,
        machine_id: int,
        fairness: FairnessView,
    ) -> List[float]:
        """The Eq. 8 sampling weight of each candidate colony for one slot."""
        return self._selection_arrays(jobs, kind, machine_id, fairness)[1]

    def _sample_job(
        self,
        jobs: List[Job],
        kind: TaskKind,
        machine_id: int,
        fairness: FairnessView,
        weights: Optional[List[float]] = None,
    ) -> Optional[Job]:
        """Sample one colony: Eq. 8 weights (pheromone x heuristic) scaled
        by the job's slot deficit.

        Callers that already hold this candidate list's ``_selection_weights``
        (e.g. to build audit rows) pass them in to avoid recomputation.
        """
        if weights is None:
            weights = self._selection_weights(jobs, kind, machine_id, fairness)
        total = pairwise_sum(weights)
        if total <= 0:
            return jobs[int(self.rng.integers(len(jobs)))]
        if self.config.deterministic_selection:
            # The first maximum, as np.argmax picks it.
            return jobs[weights.index(max(weights))]
        return jobs[min(sample_index(weights, total, self.rng.random()), len(jobs) - 1)]

    def _accepts(
        self, job: Job, kind: TaskKind, machine_id: int, fairness: FairnessView
    ) -> bool:
        """Gated acceptance: keep the slot only if this machine is good
        enough for the colony (relative to its best-known machine).

        A job with no running task of this kind bypasses the gate (it is
        maximally starved in Eq. 7 terms): gating may slow a job down but
        never stall it outright."""
        if not self.config.gating or self.intervals_elapsed == 0:
            return True
        running = job.running_maps if kind is TaskKind.MAP else job.running_reduces
        if running == 0:
            return True
        assert self.pheromones is not None
        quality = self.pheromones.relative_quality((job.job_id, kind), machine_id)
        probability = max(
            self.config.min_acceptance, quality**self.config.gating_sharpness
        )
        return bool(self.rng.random() < probability)

    def _record(self, task: Task, machine_id: int) -> None:
        colony = (task.job.job_id, task.kind)
        self.convergence.record_assignment(
            colony, self._machine_group[machine_id], self.jt.sim.now
        )
        self.assignment_log.append((self.jt.sim.now, colony, machine_id))

    # -------------------------------------------------------------- auditing
    def _decision_rows(
        self,
        jobs: List[Job],
        kind: TaskKind,
        machine_id: int,
        fairness: FairnessView,
        taus: List[float],
        weights: List[float],
    ) -> List[Dict[str, Any]]:
        """One audit row per candidate colony, from the Eq. 8 ``taus`` and
        ``weights`` the sampler already computed — never recomputed.

        Probabilities mirror ``_sample_job``'s first draw: the weights
        normalized over the candidate tier, uniform when degenerate.  Rows
        are emitted as plain dicts in the wire shape of
        :class:`~repro.observability.audit.CandidateRow` (parse back with
        :meth:`Tracer.decisions`); skipping the record objects keeps the
        traced hot path cheap.
        """
        total = pairwise_sum(weights)
        uniform = 1.0 / len(jobs)
        # Share computed once per decision, not once per row (_deficit would
        # re-walk the cluster's slot totals for every candidate).
        map_slots, reduce_slots = self._static_slot_totals
        is_map = kind is TaskKind.MAP
        pool = map_slots if is_map else reduce_slots
        share = pool / max(1, len(self.jt.active_jobs))
        # Hoisted from fairness.eta(): min_share is a property that would
        # re-divide pool/active_jobs for every row.
        min_share = fairness.min_share
        pool_slots = fairness.pool_slots
        rows: List[Dict[str, Any]] = []
        for job, tau, weight in zip(jobs, taus, weights):
            headroom = share - (job.running_maps if is_map else job.running_reduces)
            rows.append(
                {
                    "job_id": job.job_id,
                    "tau": tau,
                    "eta": fairness_eta(min_share, job.occupied_slots, pool_slots),
                    "deficit": headroom if headroom > 0.5 else 0.5,
                    "weight": weight,
                    "probability": weight / total if total > 0 else uniform,
                }
            )
        return rows

    def _emit_decision(
        self,
        rows: List[Dict[str, Any]],
        kind: TaskKind,
        machine_id: int,
        path: str,
        task: Optional[Task],
    ) -> None:
        self.tracer.emit(
            EventType.DECISION,
            self.jt.sim.now,
            machine_id=machine_id,
            kind=kind.value,
            path=path,
            chosen_job=None if task is None else task.job.job_id,
            task_id=None if task is None else task.task_id,
            candidates=rows,
        )

    def _priority_tier(self, jobs: List[Job], kind: TaskKind) -> List[Job]:
        """Jobs below their per-kind fair share, if any; else all jobs.

        Eq. 7's fairness term alone has too small a dynamic range to keep
        starved jobs from waiting behind wide jobs, so — "similar to the
        Hadoop Fair Scheduler" (Section IV-C.4) — jobs under their minimum
        share form a strict priority tier.  Eq. 8 sampling applies within
        the tier, preserving the energy-aware job-to-machine matching.
        """
        jt = self.jt
        map_slots, reduce_slots = jt.cluster.total_slots()
        pool = map_slots if kind is TaskKind.MAP else reduce_slots
        active = max(1, len(jt.active_jobs))
        share = pool / active
        if kind is TaskKind.MAP:
            starved = [j for j in jobs if j.running_maps < share]
        else:
            starved = [j for j in jobs if j.running_reduces < share]
        return starved if starved else jobs

    def _fill_map_slot(
        self, machine_id: int, fairness: FairnessView, pending: List[Job]
    ) -> Optional[Task]:
        jobs = self._priority_tier(pending, TaskKind.MAP)
        if not jobs:
            return None

        # Locality short-circuit (eta = infinity branch of Eq. 7).
        if self.config.beta > 0:
            local_jobs = [j for j in jobs if j.has_local_map(machine_id)]
            if local_jobs:
                taus, weights = self._selection_arrays(
                    local_jobs, TaskKind.MAP, machine_id, fairness
                )
                rows = (
                    self._decision_rows(
                        local_jobs, TaskKind.MAP, machine_id, fairness, taus, weights
                    )
                    if self.tracer.enabled
                    else None
                )
                job = self._sample_job(
                    local_jobs, TaskKind.MAP, machine_id, fairness, weights=weights
                )
                task = job.take_map(machine_id, prefer_local=True)
                if task is not None:
                    self._record(task, machine_id)
                    if rows is not None:
                        self._emit_decision(rows, TaskKind.MAP, machine_id, "local", task)
                    return task

        return self._gated_fill(jobs, TaskKind.MAP, machine_id, fairness)

    def _fill_reduce_slot(
        self, machine_id: int, fairness: FairnessView, schedulable: List[Job]
    ) -> Optional[Task]:
        candidates = self._priority_tier(schedulable, TaskKind.REDUCE)
        if not candidates:
            return None
        return self._gated_fill(candidates, TaskKind.REDUCE, machine_id, fairness)

    def _take(self, job: Job, kind: TaskKind, machine_id: int) -> Optional[Task]:
        if kind is TaskKind.MAP:
            task = job.take_map(machine_id, prefer_local=True)
        else:
            task = job.take_reduce()
        if task is not None:
            self._record(task, machine_id)
        return task

    def _pending_count(self, jobs: List[Job], kind: TaskKind) -> int:
        """Total pending tasks of ``kind`` across ``jobs``.

        Computed once per rejected slot and shared by the work-conserving
        check and the effective floor, which each summed it separately."""
        if kind is TaskKind.MAP:
            return sum(j.pending_map_count for j in jobs)
        return sum(j.pending_reduce_count for j in jobs)

    def _work_conserving(self, pending: int) -> bool:
        """Should a fully-rejected slot be filled anyway?

        Leaving a slot idle only saves energy when the pending work can
        complete elsewhere without extending any job's critical path; the
        cluster's idle floor is paid either way, and map/reduce work is
        short relative to job lifetimes.  E-Ant therefore falls back to
        the best sampled candidate whenever pending work of this kind
        exists (``work_conserving = True``, the default) — gating then
        shapes *which* colony wins a slot rather than whether it is used.
        Setting ``EAntConfig.work_conserving = False`` restores strict
        gating (the configuration the ablation benchmark exercises)."""
        return self.config.work_conserving and pending > 0

    def _gated_fill(
        self,
        jobs: List[Job],
        kind: TaskKind,
        machine_id: int,
        fairness: FairnessView,
    ) -> Optional[Task]:
        """Sample colonies for the slot; gate; fall back under backlog."""
        assert self.pheromones is not None
        candidates = list(jobs)
        taus, first_weights = self._selection_arrays(candidates, kind, machine_id, fairness)
        weights: Optional[List[float]] = first_weights
        rows = (
            self._decision_rows(candidates, kind, machine_id, fairness, taus, first_weights)
            if self.tracer.enabled
            else None
        )
        sampled: List[Job] = []
        for _ in range(min(self.config.candidates_per_slot, len(candidates))):
            job = self._sample_job(candidates, kind, machine_id, fairness, weights=weights)
            weights = None  # recompute for the shrunken list on later draws
            if job is None:
                return None
            sampled.append(job)
            if self._accepts(job, kind, machine_id, fairness):
                task = self._take(job, kind, machine_id)
                if task is not None:
                    if rows is not None:
                        self._emit_decision(rows, kind, machine_id, "gated", task)
                    return task
            candidates.remove(job)
            if not candidates:
                break
        pending = self._pending_count(jobs, kind) if sampled else 0
        if sampled and self._work_conserving(pending):
            best = max(
                sampled,
                key=lambda j: self.pheromones.relative_quality((j.job_id, kind), machine_id),
            )
            quality = self.pheromones.relative_quality((best.job_id, kind), machine_id)
            if quality >= self._effective_floor(pending, kind):
                task = self._take(best, kind, machine_id)
                if task is not None:
                    if rows is not None:
                        self._emit_decision(rows, kind, machine_id, "fallback", task)
                    return task
        if rows is not None:
            self._emit_decision(rows, kind, machine_id, "idle", None)
        return None  # slot left idle this heartbeat

    def _effective_floor(self, pending: int, kind: TaskKind) -> float:
        """Quality floor for the fallback, relaxed under heavy backlog.

        This realizes the Section II observation that the energy-optimal
        *number* of tasks per machine depends on the arrival rate: at low
        pressure E-Ant keeps inefficient machines idle (floor active); when
        pending work exceeds twice the slot pool, every machine is needed
        and the floor drops away."""
        map_slots, reduce_slots = self.jt.cluster.total_slots()
        pool = map_slots if kind is TaskKind.MAP else reduce_slots
        if pending > 2 * pool:
            return 0.0
        return self.config.fallback_quality_floor
