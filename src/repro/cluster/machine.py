"""Machines: hardware specs and the runtime execution substrate.

A :class:`MachineSpec` is the static description of a machine *type*
(cores, relative speeds, power law, slot counts).  A :class:`Machine` is a
live instance inside a simulation: it tracks running tasks, models CPU and
IO contention, and integrates its own energy consumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional

from .power import EnergyAccumulator, PowerModel

if TYPE_CHECKING:  # pragma: no cover
    from ..simulation import Simulator

__all__ = ["MachineSpec", "Machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a machine type.

    Parameters
    ----------
    model:
        Type name, e.g. ``"T420"`` or ``"Desktop"``.
    cores:
        Physical core count.
    cpu_speed:
        Per-core speed relative to the reference core (Core i7 @ 3.4 GHz
        from Table I = 1.0).  A task with ``cpu_work`` reference-seconds of
        computation needs ``cpu_work / cpu_speed`` seconds of core time.
    io_speed:
        Aggregate disk/IO bandwidth relative to the reference machine.
    memory_gb, disk_tb:
        Capacity metadata (Table I / Section V-B); informational.
    power:
        Affine power model of this type.
    map_slots, reduce_slots:
        Hadoop slot configuration (Section V-B: 4 map + 2 reduce).
    io_channels:
        Number of tasks that can stream IO concurrently without slowdown.
        Per-task IO rates (the io_speed calibration) sit well below a
        disk's sequential bandwidth, so a full slot complement of streams
        fits within one disk with readahead and the page cache; only the
        Atom's anaemic storage is modelled as narrower.
    """

    model: str
    cores: int
    cpu_speed: float
    io_speed: float
    memory_gb: int
    disk_tb: float
    power: PowerModel
    map_slots: int = 4
    reduce_slots: int = 2
    io_channels: int = 6

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.cpu_speed <= 0 or self.io_speed <= 0:
            raise ValueError("speeds must be positive")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ValueError("slot counts must be non-negative")
        if self.io_channels < 1:
            raise ValueError("io_channels must be >= 1")

    @property
    def total_slots(self) -> int:
        """Map + reduce slots (the ``mslot`` of Eq. 2)."""
        return self.map_slots + self.reduce_slots

    def with_slots(self, map_slots: int, reduce_slots: int) -> "MachineSpec":
        """A copy with different slot configuration (scenario tuning)."""
        return replace(self, map_slots=map_slots, reduce_slots=reduce_slots)

    def hardware_signature(self) -> str:
        """Key identifying hardware-identical machines (exchange grouping).

        E-Ant's machine-level exchange groups machines by the hardware
        attributes a JobTracker can see in heartbeats — not by the model
        label, which production inventory data often gets wrong.
        """
        return (
            f"cores={self.cores};cpu={self.cpu_speed:.3f};io={self.io_speed:.3f};"
            f"mem={self.memory_gb};idle={self.power.idle_watts:.1f};"
            f"alpha={self.power.alpha_watts:.1f}"
        )


@dataclass
class Machine:
    """A live machine instance in a running simulation.

    Tracks the CPU demand of resident tasks, exposes contention factors
    used to stretch task phase durations, and integrates energy.
    """

    machine_id: int
    spec: MachineSpec
    hostname: str = ""
    _busy_cpu: float = 0.0
    _io_active: int = 0
    energy: Optional[EnergyAccumulator] = None
    _sim: Optional["Simulator"] = field(default=None, repr=False)
    #: time-weighted utilization accumulator for average-utilization metrics
    _util_seconds: float = 0.0
    _util_last_time: float = 0.0
    #: multiplier on cpu/io speed — < 1.0 while thermally throttled
    speed_scale: float = 1.0
    #: True once removed from service and powered off (never reversed)
    decommissioned: bool = False
    #: invoked when this machine's capacity leaves service (decommission);
    #: the owning Cluster installs this to drop its cached slot totals
    on_capacity_change: Optional[Callable[[], None]] = field(default=None, repr=False)
    #: sim time this machine entered service (non-zero for mid-run joins);
    #: the anchor for average-utilization and energy windows
    commissioned_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.hostname:
            self.hostname = f"{self.spec.model.lower()}-{self.machine_id:02d}"
        if self.energy is None:
            self.energy = EnergyAccumulator(self.spec.power)

    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator clock (called by the cluster builder)."""
        self._sim = sim

    def commission(self, sim: "Simulator") -> None:
        """Bind to ``sim`` and anchor all accounting windows at its clock.

        Machines built before the simulation starts use :meth:`bind` (their
        windows open at t=0); machines that *join* mid-run must not be
        billed idle joules or averaged utilization for time they did not
        exist, so their windows open at the join instant.
        """
        self.bind(sim)
        now = sim.now
        self.commissioned_at = now
        self._util_last_time = now
        assert self.energy is not None
        self.energy._last_time = now

    # ----------------------------------------------------------- CPU tracking
    @property
    def utilization(self) -> float:
        """Machine-wide CPU utilization in [0, 1]."""
        return min(self._busy_cpu / self.spec.cores, 1.0)

    @property
    def busy_cpu(self) -> float:
        """Total core-demand of resident tasks (may exceed ``cores``)."""
        return self._busy_cpu

    def _now(self) -> float:
        if self._sim is None:
            raise RuntimeError(f"machine {self.hostname} not bound to a simulator")
        return self._sim.now

    def _advance(self) -> None:
        now = self._now()
        # Same expression as the ``utilization`` property, evaluated once
        # per advance instead of twice (this runs on every task load change).
        util = min(self._busy_cpu / self.spec.cores, 1.0)
        energy = self.energy
        assert energy is not None
        if now == self._util_last_time and not energy.keep_trace:
            # Zero-length window — several load changes routinely share one
            # timestamp (a phase boundary fires a remove/add pair, meter
            # samples coincide with heartbeats).  The time-weighted sums
            # would gain exactly 0.0 and the integrator no joules; only the
            # utilization level for the *next* window needs recording.
            # (``_util_last_time`` and ``energy._last_time`` move in
            # lockstep — every writer updates both — so the integrator's
            # window is also zero-length here.)
            energy._utilization = util
            return
        self._util_seconds += util * (now - self._util_last_time)
        self._util_last_time = now
        energy.advance(now, util)

    def add_cpu_load(self, core_demand: float) -> None:
        """A task began consuming ``core_demand`` cores of CPU."""
        if core_demand < 0:
            raise ValueError("core demand must be non-negative")
        self._advance()
        self._busy_cpu += core_demand

    def remove_cpu_load(self, core_demand: float) -> None:
        """A task stopped consuming ``core_demand`` cores of CPU."""
        self._advance()
        self._busy_cpu = max(0.0, self._busy_cpu - core_demand)

    @property
    def effective_cpu_speed(self) -> float:
        """Per-core speed after any thermal-throttle scale."""
        speed = self.spec.cpu_speed
        if self.speed_scale != 1.0:
            speed *= self.speed_scale
        return speed

    @property
    def effective_io_speed(self) -> float:
        """IO bandwidth after any thermal-throttle scale."""
        speed = self.spec.io_speed
        if self.speed_scale != 1.0:
            speed *= self.speed_scale
        return speed

    def set_speed_scale(self, factor: float) -> None:
        """Throttle (or restore) this machine to ``factor`` of rated speed.

        Closes the energy window first, then scales both the execution
        speed seen by new task phases and the dynamic power term.  Phases
        already in flight keep their sampled duration (the same
        quasi-static approximation the network model uses for flows).
        """
        if factor <= 0:
            raise ValueError("speed scale must be positive")
        self._advance()
        self.speed_scale = factor
        assert self.energy is not None
        self.energy.dynamic_scale = factor

    def decommission(self) -> None:
        """Permanently remove this machine from service and power it off."""
        now = self._now()
        self._util_seconds += self.utilization * (now - self._util_last_time)
        self._util_last_time = now
        self.decommissioned = True
        assert self.energy is not None
        self.energy.power_off(now)
        if self.on_capacity_change is not None:
            self.on_capacity_change()

    def power_watts(self) -> float:
        """Instantaneous wall power, honouring throttle and power-off state.

        Identical to ``spec.power.power(utilization)`` for a healthy
        machine; 0 W once decommissioned; idle + scaled dynamic term while
        throttled.
        """
        if self.decommissioned:
            return 0.0
        dynamic = self.spec.power.alpha_watts * self.utilization
        if self.speed_scale != 1.0:
            dynamic *= self.speed_scale
        return self.spec.power.idle_watts + dynamic

    def cpu_contention(self, extra_demand: float = 0.0) -> float:
        """Slowdown factor for CPU work given current + ``extra_demand`` load.

        With demand within the core count there is no contention (1.0);
        beyond it, tasks time-share and stretch proportionally.  This is
        what makes the 4-core Atom (6 slots) slow under full occupancy.
        """
        demand = self._busy_cpu + extra_demand
        if demand <= self.spec.cores:
            return 1.0
        return demand / self.spec.cores

    # ------------------------------------------------------------ IO tracking
    @property
    def io_active(self) -> int:
        """Number of tasks currently in an IO-bound phase."""
        return self._io_active

    def io_begin(self) -> None:
        """A task entered an IO-bound phase."""
        self._io_active += 1

    def io_end(self) -> None:
        """A task left an IO-bound phase."""
        self._io_active = max(0, self._io_active - 1)

    def io_contention(self, extra: int = 1) -> float:
        """Slowdown factor for IO given current + ``extra`` IO-active tasks."""
        active = self._io_active + extra
        if active <= self.spec.io_channels:
            return 1.0
        return active / self.spec.io_channels

    # ---------------------------------------------------------------- metrics
    def average_utilization(self, now: Optional[float] = None) -> float:
        """Time-weighted mean utilization since this machine entered service."""
        now = self._now() if now is None else now
        elapsed = now - self.commissioned_at
        if elapsed <= 0:
            return 0.0
        pending = self.utilization * (now - self._util_last_time)
        return (self._util_seconds + pending) / elapsed

    def finish(self) -> None:
        """Close the energy/utilization window at the current time."""
        self._advance()

    def idle_share_per_slot(self) -> float:
        """``P_idle / mslot`` — the idle-power share Eq. 2 bills each task."""
        return self.spec.power.idle_watts / max(self.spec.total_slots, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.hostname} util={self.utilization:.2f}>"


def machine_counts_by_type(machines: Dict[int, Machine]) -> Dict[str, int]:
    """Histogram of machine model names (convenience for reports)."""
    counts: Dict[str, int] = {}
    for machine in machines.values():
        counts[machine.spec.model] = counts.get(machine.spec.model, 0) + 1
    return counts
