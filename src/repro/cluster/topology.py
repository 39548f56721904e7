"""Cluster assembly and the network model.

:class:`Cluster` instantiates live :class:`~repro.cluster.machine.Machine`
objects from (spec, count) pairs, binds them to a simulator clock, and
exposes the groupings and energy roll-ups the rest of the library uses.

:class:`Network` is a lightweight shared-bandwidth model of the Gigabit
Ethernet fabric of Section V-B: each machine has a NIC of fixed bandwidth;
concurrent transfers on the same NIC share it equally.  This is the level of
fidelity Tarazu's communication-aware balancing and the shuffle phase need —
per-packet simulation would add cost without changing scheduler behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..simulation import Simulator
from .machine import Machine, MachineSpec

__all__ = ["Cluster", "MachineIndex", "Network"]

#: Gigabit Ethernet payload bandwidth, MB/s.
GIGABIT_MB_PER_S = 117.0


@dataclass
class Network:
    """Shared-NIC network fabric with a switch backplane cap.

    The model tracks, per machine, how many bulk transfers (remote map
    input reads, shuffle flows) are active, and reports an effective
    bandwidth for a new flow: the minimum of its fair NIC share and its
    fair share of the cluster-wide backplane.  The backplane term is what
    makes heavy remote reading expensive (Fig. 6) — sixty concurrent
    cross-node streams through one commodity GigE switch cannot each get
    full NIC rate.  Flows are quasi-static: contention is sampled when the
    flow starts (documented approximation, see DESIGN.md).
    """

    nic_mb_per_s: float = GIGABIT_MB_PER_S
    #: aggregate cross-node bandwidth of the switch fabric; the default is
    #: a non-blocking switch (the NIC shares bind first), matching the
    #: dedicated GigE switch of Section V-B
    backplane_mb_per_s: float = 16.0 * GIGABIT_MB_PER_S
    _active_flows: Dict[int, int] = field(default_factory=dict)
    _total_flows: int = 0

    def flows_at(self, machine_id: int) -> int:
        """Number of bulk flows currently touching ``machine_id``'s NIC."""
        return self._active_flows.get(machine_id, 0)

    def begin_flow(self, src_id: int, dst_id: int) -> None:
        """Register a transfer between two machines."""
        for node in (src_id, dst_id):
            self._active_flows[node] = self._active_flows.get(node, 0) + 1
        self._total_flows += 1

    def end_flow(self, src_id: int, dst_id: int) -> None:
        """Unregister a transfer."""
        for node in (src_id, dst_id):
            count = self._active_flows.get(node, 0)
            if count <= 1:
                self._active_flows.pop(node, None)
            else:
                self._active_flows[node] = count - 1
        self._total_flows = max(0, self._total_flows - 1)

    def effective_bandwidth(self, src_id: int, dst_id: int) -> float:
        """MB/s a new flow between the two machines would get right now.

        The flow is bottlenecked by the busier of its two NICs and by its
        fair share of the switch backplane, counting itself in both.
        """
        sharers = max(self.flows_at(src_id), self.flows_at(dst_id)) + 1
        nic_share = self.nic_mb_per_s / sharers
        backplane_share = self.backplane_mb_per_s / (self._total_flows + 1)
        return min(nic_share, backplane_share)

    def transfer_time(self, src_id: int, dst_id: int, megabytes: float) -> float:
        """Seconds to move ``megabytes`` between the two machines now."""
        if megabytes <= 0:
            return 0.0
        return megabytes / self.effective_bandwidth(src_id, dst_id)


class MachineIndex(NamedTuple):
    """Dense per-machine arrays for slot accounting and fleet enumeration.

    One row per machine in ascending-id order — the same column order the
    pheromone matrix uses — rebuilt lazily after fleet changes (join,
    decommission).  ``ids`` includes decommissioned machines (they keep
    their energy history and block replicas); mask with ``in_service``
    for capacity questions.
    """

    ids: np.ndarray  #: int64 machine ids, ascending
    map_slots: np.ndarray  #: int64 map slots per machine
    reduce_slots: np.ndarray  #: int64 reduce slots per machine
    in_service: np.ndarray  #: bool, False once decommissioned


class Cluster:
    """A heterogeneous collection of live machines plus the network.

    Parameters
    ----------
    sim:
        Simulator whose clock the machines integrate energy against.
    fleet:
        ``(spec, count)`` pairs, e.g. from
        :func:`repro.cluster.catalog.paper_fleet`.
    network:
        Optional custom network; defaults to Gigabit Ethernet.
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: Sequence[Tuple[MachineSpec, int]],
        network: Optional[Network] = None,
    ) -> None:
        self.sim = sim
        self.network = network or Network()
        self.machines: Dict[int, Machine] = {}
        #: memoized (map_slots, reduce_slots); the fairness math of every
        #: scheduler reads the totals on each heartbeat while the fleet
        #: only changes at commissions/decommissions, which invalidate it
        self._slot_totals: Optional[Tuple[int, int]] = None
        #: memoized ascending id list (the machines dict only ever grows)
        self._machine_id_cache: Optional[List[int]] = None
        #: memoized dense per-machine arrays (see :class:`MachineIndex`)
        self._index: Optional[MachineIndex] = None
        #: memoized hardware-signature grouping (changes only on joins)
        self._groups_cache: Optional[Dict[str, List[int]]] = None
        next_id = 0
        for spec, count in fleet:
            if count < 0:
                raise ValueError(f"negative machine count for {spec.model}")
            for _ in range(count):
                machine = Machine(machine_id=next_id, spec=spec)
                machine.bind(sim)
                machine.on_capacity_change = self._invalidate_slot_totals
                self.machines[next_id] = machine
                next_id += 1
        if not self.machines:
            raise ValueError("cluster must contain at least one machine")

    def add_machine(self, spec: MachineSpec, hostname: str = "") -> Machine:
        """Commission a brand-new machine into the running cluster.

        The machine gets the next free id and its accounting windows are
        anchored at the current sim time, so it is billed no idle joules
        for the span before it joined.  It starts with no HDFS blocks
        (blocks are not rebalanced onto new DataNodes), matching how a
        freshly added Hadoop node behaves until the balancer runs.
        """
        next_id = max(self.machines) + 1
        machine = Machine(machine_id=next_id, spec=spec, hostname=hostname)
        machine.commission(self.sim)
        machine.on_capacity_change = self._invalidate_slot_totals
        self.machines[next_id] = machine
        self._invalidate_slot_totals()
        self._machine_id_cache = None
        self._groups_cache = None
        return machine

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.machines)

    def __iter__(self) -> Iterable[Machine]:
        return iter(self.machines.values())

    def machine(self, machine_id: int) -> Machine:
        """Machine by id (raises ``KeyError`` for unknown ids)."""
        return self.machines[machine_id]

    @property
    def machine_ids(self) -> List[int]:
        """All machine ids, ascending (cached; ids are never reused)."""
        ids = self._machine_id_cache
        if ids is None:
            self._machine_id_cache = ids = sorted(self.machines)
        return ids

    def machine_index(self) -> MachineIndex:
        """Dense per-machine arrays, rebuilt lazily after fleet changes."""
        index = self._index
        if index is None:
            ordered = [self.machines[m] for m in self.machine_ids]
            index = MachineIndex(
                ids=np.array([m.machine_id for m in ordered], dtype=np.int64),
                map_slots=np.array([m.spec.map_slots for m in ordered], dtype=np.int64),
                reduce_slots=np.array(
                    [m.spec.reduce_slots for m in ordered], dtype=np.int64
                ),
                in_service=np.array([not m.decommissioned for m in ordered], dtype=bool),
            )
            self._index = index
        return index

    def machines_of_type(self, model: str) -> List[Machine]:
        """All machines whose spec model matches ``model``."""
        return [m for m in self.machines.values() if m.spec.model == model]

    def homogeneous_groups(self) -> Dict[str, List[int]]:
        """Machine ids grouped by hardware signature.

        This is the machine grouping E-Ant's machine-level exchange
        strategy averages pheromone updates over (Section IV-D).
        Membership only changes when a machine joins (decommissioned
        machines keep their group for trailing feedback), so the grouping
        is memoized; callers get a fresh copy.
        """
        groups = self._groups_cache
        if groups is None:
            groups = {}
            for machine in self.machines.values():
                groups.setdefault(machine.spec.hardware_signature(), []).append(
                    machine.machine_id
                )
            groups = {key: sorted(ids) for key, ids in groups.items()}
            self._groups_cache = groups
        return {key: list(ids) for key, ids in groups.items()}

    def group_of(self, machine_id: int) -> List[int]:
        """Ids of in-service machines hardware-identical to ``machine_id``."""
        signature = self.machines[machine_id].spec.hardware_signature()
        members = self.homogeneous_groups()[signature]
        return [m for m in members if not self.machines[m].decommissioned]

    # ----------------------------------------------------------- energy/meta
    def _invalidate_slot_totals(self) -> None:
        """Drop the memoized capacity (a machine joined or left service)."""
        self._slot_totals = None
        self._index = None

    def total_slots(self) -> Tuple[int, int]:
        """Cluster-wide (map_slots, reduce_slots) of in-service machines.

        Decommissioned machines stay in the topology for energy history but
        no longer contribute capacity to fairness pools.  Memoized between
        fleet changes: every scheduler reads the totals several times per
        heartbeat, while commissions/decommissions are rare events (each
        machine notifies the cluster via ``on_capacity_change``).
        """
        totals = self._slot_totals
        if totals is None:
            index = self.machine_index()
            live = index.in_service
            self._slot_totals = totals = (
                int(index.map_slots[live].sum()),
                int(index.reduce_slots[live].sum()),
            )
        return totals

    def finish_energy_accounting(self) -> None:
        """Close every machine's energy window at the current sim time."""
        for machine in self.machines.values():
            machine.finish()

    def total_energy_joules(self) -> float:
        """Cluster-wide energy consumed so far (call finish first)."""
        return sum(m.energy.total_joules for m in self.machines.values())

    def energy_by_type(self) -> Dict[str, float]:
        """Joules per machine model — the Fig. 8(a) breakdown."""
        by_type: Dict[str, float] = {}
        for machine in self.machines.values():
            by_type[machine.spec.model] = (
                by_type.get(machine.spec.model, 0.0) + machine.energy.total_joules
            )
        return by_type

    def utilization_by_type(self) -> Dict[str, float]:
        """Mean time-weighted CPU utilization per model — Fig. 8(b)."""
        # Imported here: ``repro.core`` imports this package.
        from ..core.floatsum import left_sum

        sums: Dict[str, List[float]] = {}
        for machine in self.machines.values():
            sums.setdefault(machine.spec.model, []).append(machine.average_utilization())
        return {model: left_sum(vals) / len(vals) for model, vals in sums.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .machine import machine_counts_by_type

        return f"<Cluster {machine_counts_by_type(self.machines)}>"
