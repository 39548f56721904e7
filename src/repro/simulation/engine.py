"""The discrete-event simulation core.

:class:`Simulator` owns the event queue and the simulation clock.  Everything
in the library — TaskTrackers, heartbeats, job arrivals, control intervals —
is expressed as generator processes (:mod:`repro.simulation.process`)
scheduled on a single :class:`Simulator`.

The kernel is deliberately small and fully deterministic: given the same
seeded RNG streams (:mod:`repro.simulation.rng`), two runs produce identical
traces.  Ties at the same timestamp are broken by insertion order.

Hot-path notes
--------------
The queue is one ``heapq`` list of ``(time, priority, seq, event)`` tuples;
``seq`` is a per-simulator counter, so entries sort by time, then priority,
then insertion.  ``run()`` is the single hottest loop in the library — every
simulated heartbeat, task phase, and control interval passes through it — so
it pops the list directly and inlines :meth:`Event._dispatch` instead of
composing ``step()`` calls: one Python frame per *run*, not per event.
``step()`` remains the one-event-at-a-time API and dispatches identically.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..observability.tracer import NULL_TRACER, EventType
from .events import NO_CALLBACKS, Event, SimulationError
from .process import Process

__all__ = ["Simulator"]

#: Cached unbound allocator for the hot event factories below — saves an
#: attribute lookup per event on the most-executed line in the library.
_new_event = Event.__new__

#: Priority for ordinary timeouts / scheduled events.
PRIORITY_NORMAL = 1
#: Priority for dispatching already-triggered events (urgent: same timestamp,
#: before new timeouts created at that timestamp fire).
PRIORITY_URGENT = 0


class Simulator:
    """A single-threaded discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    5.0
    """

    __slots__ = ("_now", "_queue", "_seq", "_dispatched", "_running", "tracer")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._dispatched = 0
        self._running = False
        #: Observation hook; defaults to the no-op tracer (``enabled`` False),
        #: so untraced runs pay one attribute check per ``run()`` call only.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Return an event that succeeds ``delay`` seconds from now.

        This is the most-constructed object in any run (every heartbeat,
        task phase, and shuffle wait is a timeout), so the event is built
        slot-by-slot and pushed inline.  Semantically identical to
        ``Event(self)`` + a push at ``now + delay``.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        event = _new_event(Event)
        event.sim = self
        event._callbacks = NO_CALLBACKS
        event._value = value
        event._exception = None
        event._triggered = True
        # ``_defused`` is deliberately left unset: it is only ever read
        # behind an ``_exception is not None`` guard, and a timeout event
        # is already triggered so ``fail()`` can never set an exception.
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self._now + delay, PRIORITY_NORMAL, seq, event))
        return event

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Return an event that succeeds at absolute simulation time ``when``.

        The absolute-time twin of :meth:`timeout`, with the same inlined
        push: a caller that accumulated ``when`` itself (a parked
        TaskTracker replaying its heartbeat phase chain) fires on exactly
        that float, with no ``now + (when - now)`` round trip.
        """
        if when < self._now:
            raise ValueError(f"timeout_at({when}) is in the past (now={self._now})")
        event = _new_event(Event)
        event.sim = self
        event._callbacks = NO_CALLBACKS
        event._value = value
        event._exception = None
        event._triggered = True
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (when, PRIORITY_NORMAL, seq, event))
        return event

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a new process from ``generator`` and schedule its first step."""
        return Process(self, generator, name=name)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at absolute simulation time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        event = Event(self)
        event._triggered = True
        event.add_callback(lambda _e: callback())
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (when, PRIORITY_NORMAL, seq, event))
        return event

    # ------------------------------------------------------------- scheduling
    def _schedule_dispatch(self, event: Event) -> None:
        """Queue an already-triggered event for callback dispatch *now*.

        Called for every ``succeed``/``fail`` — hot enough to warrant the
        same inlined push as :meth:`timeout`.
        """
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (self._now, PRIORITY_URGENT, seq, event))

    # --------------------------------------------------------------- run loop
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _priority, _seq, event = _heappop(self._queue)
        self._now = when
        self._dispatched += 1
        event._dispatch()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic metrics windows
        close deterministically.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        queue = self._queue
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.SIM_START, self._now, until=until, queued=len(queue)
            )
        # The loops below are ``step()`` unrolled: pop, advance the clock,
        # fire callbacks.  ``queue`` is never rebound, so events pushed *by*
        # callbacks land in the list being drained.
        heappop = _heappop
        dispatched = 0
        last_event_time = self._now
        try:
            if until is not None:
                if until < self._now:
                    raise ValueError(
                        f"run(until={until}) is in the past (now={self._now})"
                    )
                while queue and queue[0][0] <= until:
                    when, _priority, _seq, event = heappop(queue)
                    self._now = when
                    dispatched += 1
                    # Inlined Event._dispatch (one frame per event saved).
                    callbacks = event._callbacks
                    event._callbacks = None
                    if callbacks:
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                    if event._exception is not None and not event._defused:
                        raise event._exception
            else:
                # Same loop without the horizon check — run-to-drain is the
                # common case.  Exhaustion is detected by the pop raising
                # (free in 3.11+ until it fires) rather than a per-iteration
                # liveness test.
                while True:
                    try:
                        when, _priority, _seq, event = heappop(queue)
                    except IndexError:
                        break
                    self._now = when
                    dispatched += 1
                    callbacks = event._callbacks
                    event._callbacks = None
                    if callbacks:
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                    if event._exception is not None and not event._defused:
                        # Nobody waited on this failure: surface it so bugs
                        # do not pass silently (matches SimPy semantics).
                        raise event._exception
            last_event_time = self._now
            if until is not None:
                self._now = until
        finally:
            self._dispatched += dispatched
            self._running = False
            if self.tracer.enabled:
                # Timestamped at the last dispatched event, not the (possibly
                # far-future) `until` cap the clock parks at afterwards.
                self.tracer.emit(
                    EventType.SIM_END,
                    last_event_time,
                    clock=self._now,
                    dispatched=self._dispatched,
                    queued=len(queue),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f}s queued={len(self._queue)}>"
