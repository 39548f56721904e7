"""Pheromone bookkeeping (Eqs. 4-6) with exchange strategies (Section IV-D).

Each *colony* — a job's map tasks or reduce tasks — keeps one pheromone
value per machine.  At the end of every control interval the table is
updated from the interval's completed-task energy feedback::

    tau_{t+1}(j, m) = (1 - rho) * tau_t(j, m) + rho * sum_n dtau_n(j, m)   (Eq. 4)

    dtau_n(j, m) = (mean energy of job j's completed tasks) / E(T_n(m))    (Eq. 5)

so machines that complete more tasks with below-average energy accumulate
pheromone fastest.  Cross-job negative feedback (Eq. 6) subtracts the other
colonies' gains on the same machine, making colonies compete for
energy-efficient hosts.

The exchange strategies replace per-machine (and per-job) evidence with
group averages over hardware-identical machines and demand-similar jobs,
damping the estimate noise studied in Figs. 7 and 10.

Storage layout
--------------
Each colony's row is a dense ``float64`` ndarray whose column order is the
``machine_ids`` list order; ``_col`` maps machine id -> column.  Group
profiles use the same layout.  Joins append a column, decommissions delete
one, so the (colony x machine) matrix follows the fleet.  Every vectorized
expression here is elementwise (or an explicitly sequential ``cumsum`` for
the row sum), which keeps results bit-identical to the scalar dict-based
code this replaced — the differential suite holds that proof.  The
heartbeat scorer reads Eq. 3 from a per-row memo of Python floats
(:meth:`PheromoneTable.normalized_row`), one list index per candidate
instead of numpy calls on arrays of a handful of elements.  Deposit sums
fold left to right (:func:`~repro.core.floatsum.left_sum`), never through
builtin ``sum()``, whose float rounding changed in Python 3.12.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .floatsum import left_sum

__all__ = ["ExchangeLevel", "TaskFeedback", "PheromoneTable"]

ColonyKey = Hashable  # typically (job_id, TaskKind)


class ExchangeLevel(enum.Flag):
    """Which information-exchange strategies are active (Fig. 10's four)."""

    NONE = 0
    MACHINE = enum.auto()
    JOB = enum.auto()
    BOTH = MACHINE | JOB


@dataclass(frozen=True)
class TaskFeedback:
    """Energy feedback of one completed task, as the analyzer reports it."""

    colony: ColonyKey
    machine_id: int
    energy_joules: float
    #: demand-similarity key for job-level exchange (resource signature + kind)
    job_group: Hashable = None


@dataclass
class PheromoneTable:
    """Per-colony, per-machine pheromone values with Eq. 4-6 updates.

    Parameters
    ----------
    machine_ids:
        All machines in the cluster.
    rho:
        Evaporation coefficient of Eq. 4 (paper example: 0.5).
    initial:
        Starting pheromone of every path (paper example: 1.0).
    tau_min, tau_max:
        Absolute clamps keeping probabilities well-defined under negative
        feedback (standard MAX-MIN ant system practice).
    relative_floor:
        After each update, no machine in a colony's row may fall below
        ``relative_floor * max(row)``.  This bounds how extreme the
        assignment distribution can get, preserving the exploration that
        Section IV-C.2 calls Randomness — without it, repeated
        count-weighted deposits drive winner-take-all lock-in that
        hard-partitions the cluster by job type.
    negative_feedback:
        Weight of the Eq. 6 cross-colony term (1.0 = paper; 0 disables,
        used by the ablation benchmark).
    machine_groups:
        Hardware-identical machine groups (machine-level exchange).
    exchange:
        Which exchange strategies to apply.
    """

    machine_ids: Sequence[int]
    rho: float = 0.5
    initial: float = 1.0
    tau_min: float = 0.05
    tau_max: float = 1e9
    relative_floor: float = 0.05
    negative_feedback: float = 1.0
    machine_groups: Sequence[Sequence[int]] = ()
    exchange: ExchangeLevel = ExchangeLevel.BOTH
    #: colony -> dense pheromone row; columns follow ``machine_ids`` order.
    _tau: Dict[ColonyKey, np.ndarray] = field(default_factory=dict)
    #: machine id -> column index into every row and profile.
    _col: Dict[int, int] = field(default_factory=dict)
    #: colony -> (sum(row), max(row)) memo for the Eq. 3 normalizers.  The
    #: E-Ant scheduler queries attractiveness/relative_quality once per
    #: (pending job x offered slot) per heartbeat, but rows only change at
    #: control-interval updates and fleet churn — so the normalizers are
    #: computed lazily on first query and dropped on any row mutation
    #: (update / add_machine / remove_machine / drop_colony).  The row sum
    #: uses ``cumsum`` — sequential left-to-right like the scalar ``sum``
    #: it replaced — so queries stay bit-identical to recomputing them.
    _row_stats: Dict[ColonyKey, Tuple[float, float]] = field(default_factory=dict)
    #: colony -> Eq. 3 attractiveness of every column, ``(row / sum).tolist()``,
    #: memoized and invalidated exactly like ``_row_stats``.
    _normalized: Dict[ColonyKey, List[float]] = field(default_factory=dict)
    _group_of: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: colony -> job-similarity group (set via ensure_colony)
    _colony_group: Dict[ColonyKey, Hashable] = field(default_factory=dict)
    #: persistent per-group pheromone profiles new colonies inherit
    #: (dense rows in the same column layout as ``_tau``)
    _group_profiles: Dict[Hashable, np.ndarray] = field(default_factory=dict)
    #: EMA weight folding a depositing colony's row into its group profile
    profile_ema: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.tau_min <= 0 or self.tau_max <= self.tau_min:
            raise ValueError("need 0 < tau_min < tau_max")
        if not 0.0 <= self.relative_floor < 1.0:
            raise ValueError("relative_floor must be in [0, 1)")
        if self.negative_feedback < 0:
            raise ValueError("negative feedback weight must be non-negative")
        self.machine_ids = list(self.machine_ids)
        if not self.machine_ids:
            raise ValueError("need at least one machine")
        self._col = {m: i for i, m in enumerate(self.machine_ids)}
        if len(self._col) != len(self.machine_ids):
            raise ValueError("duplicate machine ids")
        for group in self.machine_groups:
            members = tuple(sorted(group))
            for machine_id in members:
                self._group_of[machine_id] = members
        for machine_id in self.machine_ids:
            self._group_of.setdefault(machine_id, (machine_id,))

    # -------------------------------------------------------------- colonies
    def ensure_colony(self, colony: ColonyKey, group: Hashable = None) -> None:
        """Create a colony's row.

        With job-level exchange active and a known ``group`` that has a
        stored profile (built from earlier homogeneous jobs), the new
        colony inherits that profile — this is how short jobs benefit from
        the experiences of similar jobs that ran before them
        (Section IV-D's job-level exchange).  Otherwise the row starts
        uniform at ``initial``.
        """
        if group is not None:
            self._colony_group.setdefault(colony, group)
        if colony in self._tau:
            return
        profile = None
        if group is not None and self.exchange & ExchangeLevel.JOB:
            profile = self._group_profiles.get(group)
        if profile is not None:
            self._tau[colony] = profile.copy()
        else:
            self._tau[colony] = np.full(len(self.machine_ids), self.initial)

    # ------------------------------------------------------- fleet dynamics
    def add_machine(self, machine_id: int, group: Sequence[int]) -> None:
        """Admit a machine that joined the cluster mid-run.

        ``group`` is the full membership of its hardware-identical group
        (including ``machine_id`` itself).  Every live colony row and every
        stored group profile gains a column seeded at the prior
        ``initial`` — the new machine starts with no evidence, exactly like
        every path did at t=0, and earns (or loses) pheromone from its
        first control interval of feedback.
        """
        if machine_id not in self._col:
            self._col[machine_id] = len(self.machine_ids)
            self.machine_ids.append(machine_id)
            for colony, row in self._tau.items():
                self._tau[colony] = np.append(row, self.initial)
            for key, profile in self._group_profiles.items():
                self._group_profiles[key] = np.append(profile, self.initial)
        members = tuple(sorted(set(group) | {machine_id}))
        for member in members:
            self._group_of[member] = members
        self._forget_normalizers()

    def remove_machine(self, machine_id: int) -> None:
        """Prune a departed (decommissioned) machine's paths everywhere.

        Its pheromone simply vanishes: stale tau toward a machine that can
        never host another task would otherwise keep soaking up assignment
        probability and distort each colony's normalization (Eq. 3).
        """
        column = self._col.pop(machine_id, None)
        if column is not None:
            self.machine_ids.remove(machine_id)
            for colony, row in self._tau.items():
                self._tau[colony] = np.delete(row, column)
            for key, profile in self._group_profiles.items():
                self._group_profiles[key] = np.delete(profile, column)
            for m, index in self._col.items():
                if index > column:
                    self._col[m] = index - 1
        members = self._group_of.pop(machine_id, None)
        if members is not None:
            remaining = tuple(m for m in members if m != machine_id)
            for member in remaining:
                self._group_of[member] = remaining
        self._forget_normalizers()

    def drop_colony(self, colony: ColonyKey) -> None:
        """Forget a finished job's colony (its group profile persists)."""
        self._tau.pop(colony, None)
        self._row_stats.pop(colony, None)
        self._normalized.pop(colony, None)
        self._colony_group.pop(colony, None)

    @property
    def colonies(self) -> List[ColonyKey]:
        return list(self._tau)

    # --------------------------------------------------------------- queries
    def _stats(self, colony: ColonyKey) -> Tuple[float, float]:
        """``(sum(row), max(row))`` for a colony, memoized between mutations."""
        stats = self._row_stats.get(colony)
        if stats is None:
            row = self._tau[colony]
            # cumsum[-1], not sum(): sequential left-to-right accumulation
            # matches the scalar reference bit-for-bit (ndarray.sum is
            # pairwise).  The method form skips np.cumsum's dispatch wrapper.
            stats = (float(row.cumsum()[-1]), float(row.max()))
            self._row_stats[colony] = stats
        return stats

    def row_mapping(self, colony: ColonyKey) -> Dict[int, float]:
        """The colony's row as a ``{machine_id: tau}`` dict (copy)."""
        return dict(zip(self.machine_ids, self._tau[colony].tolist()))

    def tau(self, colony: ColonyKey, machine_id: int) -> float:
        """Current pheromone of one path."""
        self.ensure_colony(colony)
        return float(self._tau[colony][self._col[machine_id]])

    def attractiveness(self, colony: ColonyKey, machine_id: int) -> float:
        """Eq. 3: tau(j, m) normalized over all machines for the colony."""
        self.ensure_colony(colony)
        return float(self._tau[colony][self._col[machine_id]] / self._stats(colony)[0])

    def normalized_row(self, colony: ColonyKey) -> List[float]:
        """Eq. 3 for every machine, in column order (memoized; do not mutate).

        Each element is the same ``tau / sum(row)`` float division
        :meth:`attractiveness` performs.  The heartbeat scorer reads it
        through :meth:`normalized_column`.
        """
        normalized = self._normalized.get(colony)
        if normalized is None:
            self.ensure_colony(colony)
            normalized = (self._tau[colony] / self._stats(colony)[0]).tolist()
            self._normalized[colony] = normalized
        return normalized

    def normalized_column(self, colonies: List[ColonyKey], machine_id: int) -> List[float]:
        """``normalized_row(colony)[j]`` for each colony, where ``j`` is
        ``machine_id``'s column.

        The heartbeat scorer's read of Eq. 3 for one slot offer's
        candidates, in one call.
        """
        column = self._col[machine_id]
        memo = self._normalized
        taus = []
        for colony in colonies:
            row = memo.get(colony)
            if row is None:
                row = self.normalized_row(colony)
            taus.append(row[column])
        return taus

    def attractiveness_row(self, colony: ColonyKey) -> Dict[int, float]:
        """Eq. 3 for every machine at once."""
        return dict(zip(self.machine_ids, self.normalized_row(colony)))

    def relative_quality(self, colony: ColonyKey, machine_id: int) -> float:
        """Attractiveness of ``machine_id`` relative to the colony's best.

        1.0 on the colony's best machine; < 1 elsewhere.  This drives the
        gated acceptance in the scheduler: a slot on a poor machine is
        left idle with high probability.
        """
        self.ensure_colony(colony)
        return float(self._tau[colony][self._col[machine_id]] / self._stats(colony)[1])

    def _forget_normalizers(self) -> None:
        """Drop every memoized Eq. 3 normalizer (rows are about to change)."""
        self._row_stats.clear()
        self._normalized.clear()

    # --------------------------------------------------------------- updates
    def update(self, feedback: Iterable[TaskFeedback]) -> Dict[ColonyKey, Dict[int, float]]:
        """Apply one control interval's feedback (Eqs. 4-6 + exchange).

        Returns the per-colony, per-machine deposit sums ``S(j, m)``
        actually applied (before evaporation), for diagnostics.
        """
        items = [f for f in feedback if f.energy_joules > 0]
        deposits = self._compute_deposits(items)

        # Record job-group membership observed in the feedback itself.
        for item in items:
            if item.job_group is not None:
                self._colony_group.setdefault(item.colony, item.job_group)

        self._apply_update(deposits)
        self._fold_into_group_profiles(deposits)
        return deposits

    def _apply_update(self, deposits: Dict[ColonyKey, Dict[int, float]]) -> None:
        """Eqs. 4 and 6 over every live row, one vectorized pass per colony.

        Eq. 6: colonies competing for a machine push each other down.  The
        cross-colony term is the *mean* of the other colonies' deposits, so
        its magnitude stays comparable to one colony's own deposit
        regardless of how many jobs share the cluster.  ``machine_totals``
        accumulates colony-by-colony in deposit insertion order — the same
        addition order as the scalar reference, which float addition's
        non-associativity makes load-bearing.
        """
        width = len(self.machine_ids)
        col = self._col
        depositors = max(len(deposits), 1)
        machine_totals = np.zeros(width)
        own_rows: Dict[ColonyKey, np.ndarray] = {}
        for colony, per_machine in deposits.items():
            own = np.zeros(width)
            for machine_id, value in per_machine.items():
                # Feedback can trail a machine's removal by one control
                # interval; deposits to departed machines never reach a
                # live column (the scalar code accumulated and then never
                # read them).
                column = col.get(machine_id)
                if column is not None:
                    own[column] = value
            own_rows[colony] = own
            machine_totals += own

        # Eq. 4: evaporate and deposit, clamped.  Every row is about to
        # change, so the memoized normalizers go stale here.
        self._forget_normalizers()
        no_deposit = np.zeros(width)
        keep = 1.0 - self.rho
        for colony, row in self._tau.items():
            own = own_rows.get(colony)
            others_count = depositors - (1 if colony in deposits else 0)
            if own is None:
                own = no_deposit
            if others_count:
                others_mean = (machine_totals - own) / others_count
            else:
                others_mean = no_deposit
            effective = own - self.negative_feedback * others_mean
            new_row = keep * row + self.rho * effective
            np.clip(new_row, self.tau_min, self.tau_max, out=new_row)
            if self.relative_floor > 0:
                floor = self.relative_floor * new_row.max()
                np.maximum(new_row, floor, out=new_row)
            self._tau[colony] = new_row

    def _fold_into_group_profiles(
        self, deposits: Dict[ColonyKey, Dict[int, float]]
    ) -> None:
        """EMA each *depositing* colony's row into its group profile.

        Only colonies with fresh evidence contribute — idle or just-arrived
        colonies would otherwise dilute the accumulated group experience
        back toward uniform, and the whole point of job-level exchange is
        that a finished job's experience outlives it."""
        if not self.exchange & ExchangeLevel.JOB:
            return
        for colony in deposits:
            group = self._colony_group.get(colony)
            if group is None or colony not in self._tau:
                continue
            row = self._tau[colony]
            profile = self._group_profiles.get(group)
            if profile is None:
                self._group_profiles[group] = row.copy()
            else:
                w = self.profile_ema
                self._group_profiles[group] = (1.0 - w) * profile + w * row

    def group_profile(self, group: Hashable) -> Dict[int, float]:
        """Inheritable pheromone profile of a job group (copy)."""
        profile = self._group_profiles.get(group)
        if profile is None:
            return {}
        return dict(zip(self.machine_ids, profile.tolist()))

    # ------------------------------------------------------------- internals
    def _compute_deposits(
        self, items: Sequence[TaskFeedback]
    ) -> Dict[ColonyKey, Dict[int, float]]:
        """Per-colony ``S(j, m) = sum_n dtau_n`` with exchange averaging."""
        if not items:
            return {}

        # Colony mean energies (the numerator of Eq. 5).
        by_colony: Dict[ColonyKey, List[TaskFeedback]] = {}
        for item in items:
            by_colony.setdefault(item.colony, []).append(item)

        deposits: Dict[ColonyKey, Dict[int, float]] = {}
        for colony, colony_items in by_colony.items():
            self.ensure_colony(colony)
            mean_energy = left_sum(f.energy_joules for f in colony_items) / len(colony_items)
            # Raw per-task deltas, grouped by machine.
            per_machine: Dict[int, List[float]] = {}
            for item in colony_items:
                delta = mean_energy / item.energy_joules
                per_machine.setdefault(item.machine_id, []).append(delta)

            if self.exchange & ExchangeLevel.MACHINE:
                per_machine = self._machine_exchange(per_machine)

            deposits[colony] = {m: left_sum(values) for m, values in per_machine.items()}

        if self.exchange & ExchangeLevel.JOB:
            deposits = self._job_exchange(deposits, by_colony)
        return deposits

    def _machine_exchange(
        self, per_machine: Mapping[int, List[float]]
    ) -> Dict[int, List[float]]:
        """Replace each machine's deltas with its hardware group's average.

        Every member of a group with evidence receives the group's mean
        per-task delta, replicated ``N_G / |G|`` times — total deposited
        pheromone mass is preserved, only redistributed across the group.
        """
        grouped: Dict[Tuple[int, ...], List[float]] = {}
        for machine_id, deltas in per_machine.items():
            # Feedback can trail a machine's removal by one control
            # interval; a departed machine falls back to a singleton group.
            group = self._group_of.get(machine_id, (machine_id,))
            grouped.setdefault(group, []).extend(deltas)
        result: Dict[int, List[float]] = {}
        for group, deltas in grouped.items():
            mean_delta = left_sum(deltas) / len(deltas)
            share = len(deltas) / len(group)
            for machine_id in group:
                result[machine_id] = [mean_delta * share]
        return result

    def _job_exchange(
        self,
        deposits: Dict[ColonyKey, Dict[int, float]],
        by_colony: Mapping[ColonyKey, List[TaskFeedback]],
    ) -> Dict[ColonyKey, Dict[int, float]]:
        """Average deposits across demand-similar colonies (job groups).

        Every *live* colony of a group receives the group's averaged
        deposit — including colonies that completed nothing themselves this
        interval, which is exactly how a fresh job benefits from its
        homogeneous siblings' experience (Section IV-D)."""
        group_of_colony: Dict[ColonyKey, Hashable] = {}
        for colony, colony_items in by_colony.items():
            group_of_colony[colony] = colony_items[0].job_group
        groups: Dict[Hashable, List[ColonyKey]] = {}
        for colony, group in group_of_colony.items():
            groups.setdefault(group, []).append(colony)

        result: Dict[ColonyKey, Dict[int, float]] = {}
        for group, contributors in groups.items():
            if group is None:
                for colony in contributors:
                    result[colony] = deposits[colony]
                continue
            merged: Dict[int, float] = {}
            for colony in contributors:
                for machine_id, value in deposits[colony].items():
                    merged[machine_id] = merged.get(machine_id, 0.0) + value
            averaged = {m: v / len(contributors) for m, v in merged.items()}
            # All live members of the group share the averaged experience.
            # (Iteration stays in dict-insertion order — sets would make
            # downstream float folds depend on hash randomization.)
            recipients = [
                colony
                for colony, colony_group in self._colony_group.items()
                if colony_group == group and colony in self._tau
            ]
            recipients += [c for c in contributors if c not in recipients]
            for colony in recipients:
                result[colony] = dict(averaged)
        return result
