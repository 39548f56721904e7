"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based DES in the style of SimPy, written
from scratch for this reproduction.  Public surface:

* :class:`Simulator` — clock + ``heapq`` event queue + process spawner.
* :class:`Event` — a one-shot waitable occurrence.
* :class:`Process`, :class:`Interrupt` — generator processes with interrupt.
* :class:`RandomStreams` — named seeded RNG streams.
"""

from .engine import Simulator
from .events import Event, SimulationError
from .process import Interrupt, Process
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "Process",
    "Interrupt",
    "RandomStreams",
]
