"""The discrete-event simulation core.

:class:`Simulator` owns the event heap and the simulation clock.  Everything
in the library — TaskTrackers, heartbeats, job arrivals, control intervals —
is expressed as generator processes (:mod:`repro.simulation.process`)
scheduled on a single :class:`Simulator`.

The kernel is deliberately small and fully deterministic: given the same
seeded RNG streams (:mod:`repro.simulation.rng`), two runs produce identical
traces.  Ties at the same timestamp are broken by insertion order.

Hot-path notes
--------------
``run()`` is the single hottest loop in the library — every simulated
heartbeat, task phase, and control interval passes through it — so it is
written against the heap's internals instead of composing ``step()`` calls:
one Python frame per *run*, not per event.  Entries live in an
:class:`~repro.simulation.heap.EventHeap` (indexed binary heap), which is
what gives :meth:`Simulator.cancel` / :meth:`Simulator.reschedule` their
O(log n) amortized cost without slowing the pop path.  ``step()`` remains
the one-event-at-a-time API and dispatches identically.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..observability.tracer import NULL_TRACER, EventType
from .events import NO_CALLBACKS, AllOf, AnyOf, Event, SimulationError
from .heap import EventHeap
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

    __slots__ = (
        "_now",
        "_heap",
        "_hp_entries",
        "_dispatched",
        "_running",
        "_stopped",
        "tracer",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._heap = EventHeap()
        # Hot-path alias into the heap.  EventHeap mutates its entry list
        # in place (never rebinds it), so this stays valid for the life of
        # the simulator and saves an attribute hop per push.
        self._hp_entries = self._heap._entries
        self._dispatched = 0
        self._running = False
        self._stopped = False
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
        slot-by-slot and pushed with ``EventHeap.push`` unrolled — the
        kernel-internal inlining contract described in the module
        docstring.  Semantically identical to ``Event(self)`` +
        ``heap.push(...)``.
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
        heap = self._heap
        heap._seq = seq = heap._seq + 1
        _heappush(self._hp_entries, (self._now + delay, PRIORITY_NORMAL, seq, event))
        event._heap_seq = seq
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
        heap = self._heap
        heap._seq = seq = heap._seq + 1
        _heappush(self._hp_entries, (when, PRIORITY_NORMAL, seq, event))
        event._heap_seq = seq
        return event

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Spawn a new process from ``generator`` and schedule its first step."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that succeeds when all ``events`` succeed."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that succeeds when any of ``events`` succeeds."""
        return AnyOf(self, list(events))

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at absolute simulation time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        event = Event(self)
        event._triggered = True
        event.add_callback(lambda _e: callback())
        event._heap_seq = self._heap.push(when, PRIORITY_NORMAL, event)
        return event

    # ------------------------------------------------------------- scheduling
    def _schedule_dispatch(self, event: Event) -> None:
        """Queue an already-triggered event for callback dispatch *now*.

        Called for every ``succeed``/``fail`` — hot enough to warrant the
        same ``EventHeap.push`` unrolling as :meth:`timeout`.
        """
        heap = self._heap
        heap._seq = seq = heap._seq + 1
        _heappush(self._hp_entries, (self._now, PRIORITY_URGENT, seq, event))
        event._heap_seq = seq

    def cancel(self, event: Event) -> bool:
        """Remove a queued event so it never dispatches; False if not queued.

        O(1) now, amortized O(log n) overall (lazy deletion in the indexed
        heap).  Cancelling an event that already dispatched — or was never
        scheduled — is a safe no-op, so cleanup code can cancel blindly.
        """
        seq = event._heap_seq
        if seq is None or event._callbacks is None:
            # Never queued / already cancelled (seq is None), or already
            # dispatched (callbacks consumed): the handle is dead, and heap
            # handles are single-use, so it must not reach heap.cancel.
            return False
        self._heap.cancel(seq)
        event._heap_seq = None
        return True

    def reschedule(self, event: Event, when: float) -> None:
        """Move a queued event to absolute time ``when`` (normal priority).

        The event keeps its value/callbacks; only its position in the
        timeline changes.  Raises if the event is not currently queued or
        ``when`` is in the past.
        """
        if when < self._now:
            raise ValueError(f"reschedule({when}) is in the past (now={self._now})")
        seq = event._heap_seq
        if seq is None or event._callbacks is None:
            raise SimulationError("reschedule() on an event that is not queued")
        event._heap_seq = self._heap.reschedule(seq, when, PRIORITY_NORMAL, event)

    # --------------------------------------------------------------- run loop
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        entry = self._heap.peek()
        return entry[0] if entry is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event from the heap."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _priority, _seq, event = self._heap.pop()
        self._now = when
        self._dispatched += 1
        event._dispatch()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so periodic metrics windows
        close deterministically.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap
        if self.tracer.enabled:
            self.tracer.emit(
                EventType.SIM_START, self._now, until=until, queued=len(heap)
            )
        # The loop below is ``step()`` unrolled against the heap internals:
        # pop, skip tombstones, advance the clock, fire callbacks.  The
        # aliases are stable — EventHeap mutates its containers in place —
        # so cancellations made *by* callbacks are honoured mid-run.
        entries = heap._entries
        cancelled = heap._cancelled
        heappop = _heappop
        dispatched = 0
        last_event_time = self._now
        try:
            if until is not None:
                if until < self._now:
                    raise ValueError(
                        f"run(until={until}) is in the past (now={self._now})"
                    )
                while entries and entries[0][0] <= until:
                    when, _priority, seq, event = heappop(entries)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
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
                    if self._stopped:
                        break
            else:
                # Same loop without the horizon check — run-to-drain is the
                # common case.  Exhaustion is detected by the pop raising
                # (free in 3.11+ until it fires) rather than a per-iteration
                # liveness test, and ``stop()`` is honoured after dispatch,
                # which is equivalent: the flag can only flip *during* one.
                while True:
                    try:
                        when, _priority, seq, event = heappop(entries)
                    except IndexError:
                        break
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue
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
                    if self._stopped:
                        break
            last_event_time = self._now
            if until is not None and not self._stopped:
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
                    queued=len(heap),
                )

    def stop(self) -> None:
        """Stop the run loop after the current event finishes dispatching."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f}s queued={len(self._heap)}>"
