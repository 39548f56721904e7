"""Retained naive implementations of every optimized hot path.

The kernel and assignment-loop optimizations (the inlined run loop and
event factories, memoized pheromone normalizers, cached slot totals,
gated tracker-expiry sweeps, idle-heartbeat parking, the no-work
heartbeat short-circuit, batched energy integration) are all *pure*
transformations: they must compute exactly the same floating-point
expressions in the same order as the straightforward code they
replaced, so every simulation stays bit-identical.  This module keeps
the straightforward code alive as the executable specification of that
contract.

:func:`reference_mode` swaps the naive implementations in (monkey-style,
on the classes themselves) for the duration of a ``with`` block; the
differential suite (``tests/differential/``) runs the full scenario
corpus both ways and requires identical
:func:`~repro.runner.record.record_digest` values.  A drift means an
optimization changed observable behaviour — exactly the regression the
optimized code promises never to make.

The naive bodies are faithful transcriptions of the pre-optimization
code, not simplified rewrites: ``_stats`` recomputes the row normalizers
on every query, ``total_slots`` re-sums the fleet, the simulator run
loop composes :meth:`Simulator.step` one frame per event and every push
goes through one ``heappush`` helper, the expiry sweep scans every
tracker on every heartbeat, every TaskTracker heartbeats every interval
(no idle parking), every heartbeat enters the policy's ``select_tasks``
(no no-work short-circuit), and the energy integrator goes through the
:class:`PowerModel` helper methods.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappush
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.power import EnergyAccumulator
from ..cluster.topology import Cluster
from ..hadoop.jobtracker import JobTracker
from ..observability.tracer import EventType
from ..simulation.engine import PRIORITY_NORMAL, PRIORITY_URGENT, Simulator
from ..simulation.events import Event, SimulationError
from .pheromone import ColonyKey, PheromoneTable
from .scheduler import EAntScheduler
from .service import LocalSchedulerCore

__all__ = ["reference_mode", "REFERENCE_PATCHES"]


# --------------------------------------------------------------- pheromone
def _reference_stats(self: PheromoneTable, colony: ColonyKey) -> Tuple[float, float]:
    """Eq. 3 normalizers recomputed from the row on every query (no memo).

    The scalar ``sum`` accumulates left-to-right exactly like the
    ``cumsum`` the optimized memo uses, so the two agree bit-for-bit.
    """
    values = self._tau[colony].tolist()
    return (sum(values), max(values))


def _reference_apply_update(
    self: PheromoneTable, deposits: Dict[ColonyKey, Dict[int, float]]
) -> None:
    """Eqs. 4 and 6 as per-machine scalar loops (the pre-vectorization code).

    Works over the dense rows through the column index, but every float
    expression — the Eq. 6 machine totals, the per-colony negative
    feedback, the evaporate/deposit/clamp chain and the relative floor —
    is evaluated one machine at a time in the original order.
    """
    effective: Dict[ColonyKey, Dict[int, float]] = {}
    machine_totals: Dict[int, float] = {}
    depositors = max(len(deposits), 1)
    for colony, per_machine in deposits.items():
        for machine_id, value in per_machine.items():
            machine_totals[machine_id] = machine_totals.get(machine_id, 0.0) + value
    for colony in self._tau:
        effective[colony] = {}
        own = deposits.get(colony, {})
        others_count = depositors - (1 if colony in deposits else 0)
        for machine_id in self.machine_ids:
            own_value = own.get(machine_id, 0.0)
            others_sum = machine_totals.get(machine_id, 0.0) - own_value
            others_mean = others_sum / others_count if others_count else 0.0
            effective[colony][machine_id] = (
                own_value - self.negative_feedback * others_mean
            )

    self._row_stats.clear()
    col = self._col
    for colony, row in self._tau.items():
        updates = effective.get(colony, {})
        new_row = row.copy()
        for machine_id in self.machine_ids:
            column = col[machine_id]
            new = (1.0 - self.rho) * float(row[column]) + self.rho * updates.get(
                machine_id, 0.0
            )
            new_row[column] = min(self.tau_max, max(self.tau_min, new))
        if self.relative_floor > 0:
            floor = self.relative_floor * max(new_row.tolist())
            for machine_id in self.machine_ids:
                column = col[machine_id]
                if new_row[column] < floor:
                    new_row[column] = floor
        self._tau[colony] = new_row


def _reference_fold_into_group_profiles(
    self: PheromoneTable, deposits: Dict[ColonyKey, Dict[int, float]]
) -> None:
    """Profile EMA folded one machine at a time (the pre-vectorization code)."""
    from .pheromone import ExchangeLevel

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
            merged = profile.copy()
            for column in range(len(self.machine_ids)):
                merged[column] = (1.0 - w) * float(profile[column]) + w * float(
                    row[column]
                )
            self._group_profiles[group] = merged


# --------------------------------------------------------------- scheduler
def _reference_selection_arrays(self, jobs, kind, machine_id, fairness):
    """Per-candidate Eq. 8 scoring as the original per-job scalar loop.

    ``attractiveness`` / ``_eta`` / ``_deficit`` evaluate one candidate at
    a time; the vectorized scorer must reproduce these weights (and hence
    the sampler's RNG draws) bit-for-bit.
    """
    from ..hadoop.job import TaskKind

    assert self.pheromones is not None
    sharpness = self.config.selection_sharpness if kind is TaskKind.MAP else 1.0
    taus = []
    weights = []
    for job in jobs:
        tau = self.pheromones.attractiveness((job.job_id, kind), machine_id)
        taus.append(tau)
        weights.append(tau**sharpness * self._eta(job, kind, fairness))
    return np.array(taus), np.array(weights)


# ----------------------------------------------------------------- cluster
def _reference_total_slots(self: Cluster) -> Tuple[int, int]:
    """Fleet capacity re-summed on every call (no memo)."""
    maps = sum(m.spec.map_slots for m in self.machines.values() if not m.decommissioned)
    reduces = sum(
        m.spec.reduce_slots for m in self.machines.values() if not m.decommissioned
    )
    return (maps, reduces)


# --------------------------------------------------------------- simulator
def _reference_push(self: Simulator, when: float, priority: int, event: Event) -> None:
    """One ``heappush`` per queued event: the seed kernel's ``_push``."""
    self._seq += 1
    heappush(self._queue, (when, priority, self._seq, event))


def _reference_timeout(self: Simulator, delay: float, value: Any = None) -> Event:
    """``Event(sim)`` + ``_reference_push`` — no slot-by-slot construction."""
    if delay < 0:
        raise ValueError(f"negative timeout delay: {delay}")
    event = Event(self)
    event._value = value
    event._triggered = True
    _reference_push(self, self._now + delay, PRIORITY_NORMAL, event)
    return event


def _reference_schedule_dispatch(self: Simulator, event: Event) -> None:
    """Urgent-priority queueing through ``_reference_push``."""
    _reference_push(self, self._now, PRIORITY_URGENT, event)


def _reference_run(self: Simulator, until: Optional[float] = None) -> None:
    """``step()``-composed run loop: one frame per event, no inlining."""
    if self._running:
        raise SimulationError("simulator is already running (re-entrant run)")
    self._running = True
    queue = self._queue
    if self.tracer.enabled:
        self.tracer.emit(EventType.SIM_START, self._now, until=until, queued=len(queue))
    last_event_time = self._now
    try:
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        while queue:
            if until is not None and self.peek() > until:
                break
            self.step()
        last_event_time = self._now
        if until is not None:
            self._now = until
    finally:
        self._running = False
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.SIM_END,
                last_event_time,
                clock=self._now,
                dispatched=self._dispatched,
                queued=len(queue),
            )


# -------------------------------------------------------------- jobtracker
def _reference_expire_dead_trackers(self: JobTracker) -> None:
    """Full tracker scan on every heartbeat (no staleness lower bound)."""
    expiry = self.config.tracker_expiry
    if expiry <= 0:
        return
    now = self.sim.now
    for machine_id, tracker in list(self.trackers.items()):
        last = self.last_heartbeat.get(machine_id)
        if last is None or now - last < expiry:
            continue
        self.expire_tracker(machine_id)


def _reference_park_idle(self: JobTracker, tracker, status, assignments) -> None:
    """Heartbeat every ``heartbeat_interval``: no tracker ever parks."""


def _reference_select_tasks(self: LocalSchedulerCore, status) -> list:
    """Every heartbeat enters the policy, with or without work."""
    return self.scheduler.select_tasks(status)


# ------------------------------------------------------------------ energy
def _reference_machine_advance(self: Machine) -> None:
    """Close the utilization/energy window unconditionally (no zero-length
    fast path)."""
    now = self._now()
    util = min(self._busy_cpu / self.spec.cores, 1.0)
    self._util_seconds += util * (now - self._util_last_time)
    self._util_last_time = now
    assert self.energy is not None
    self.energy.advance(now, util)


def _reference_energy_advance(
    self: EnergyAccumulator, now: float, new_utilization: float
) -> None:
    """Integrate through the ``PowerModel`` helpers (no inlining)."""
    if now < self._last_time:
        raise ValueError(f"time went backwards: {now} < {self._last_time}")
    duration = now - self._last_time
    if duration > 0 and self.powered:
        self.idle_joules += self.model.idle_energy(duration)
        dynamic = self.model.dynamic_energy(self._utilization, duration)
        if self.dynamic_scale != 1.0:
            dynamic *= self.dynamic_scale
        self.dynamic_joules += dynamic
    self._last_time = now
    self._utilization = min(max(new_utilization, 0.0), 1.0)


#: (class, attribute) -> naive implementation, the full patch set applied by
#: :func:`reference_mode`.  Exposed so tests can assert the set stays in sync
#: with the optimizations it shadows.
REFERENCE_PATCHES: Dict[Tuple[type, str], Any] = {
    (PheromoneTable, "_stats"): _reference_stats,
    (PheromoneTable, "_apply_update"): _reference_apply_update,
    (PheromoneTable, "_fold_into_group_profiles"): _reference_fold_into_group_profiles,
    (EAntScheduler, "_selection_arrays"): _reference_selection_arrays,
    (Cluster, "total_slots"): _reference_total_slots,
    (Simulator, "timeout"): _reference_timeout,
    (Simulator, "_schedule_dispatch"): _reference_schedule_dispatch,
    (Simulator, "run"): _reference_run,
    (JobTracker, "_expire_dead_trackers"): _reference_expire_dead_trackers,
    (JobTracker, "_park_idle"): _reference_park_idle,
    (LocalSchedulerCore, "_select_tasks"): _reference_select_tasks,
    (Machine, "_advance"): _reference_machine_advance,
    (EnergyAccumulator, "advance"): _reference_energy_advance,
}


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run everything inside the block on the naive reference paths.

    Swaps every entry of :data:`REFERENCE_PATCHES` onto its class and
    restores the optimized implementations on exit (also on exception).
    Not reentrant and not thread-safe — it rewrites class attributes —
    which is fine for its one purpose: differential testing.
    """
    saved = {
        (cls, name): cls.__dict__[name] for (cls, name) in REFERENCE_PATCHES
    }
    try:
        for (cls, name), naive in REFERENCE_PATCHES.items():
            setattr(cls, name, naive)
        yield
    finally:
        for (cls, name), original in saved.items():
            setattr(cls, name, original)
