"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator *yields* things
it wants to wait for:

* an :class:`~repro.simulation.events.Event` — resume when it triggers;
* a ``float``/``int`` — shorthand for ``sim.timeout(value)``;
* another :class:`Process` — resume when that process terminates (join).

When the generator returns, the process (itself an event) succeeds with the
generator's return value; uncaught exceptions fail the process event and
propagate to any process joined on it.  A process that nothing has joined
when it returns is marked processed at once instead of queueing an exit
event that no callback would receive (every task attempt ends this way).

Processes support cooperative :meth:`Process.interrupt`, used to kill
speculative-execution losers and the attempts of a crashed node.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import NO_CALLBACKS, Event, SimulationError

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process (also an event: it triggers on exit)."""

    __slots__ = ("_generator", "_send", "_resume_cb", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: Optional[str] = None) -> None:  # noqa: F821
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {type(generator).__name__}")
        self._generator = generator
        # Bound-method caches: every wakeup calls ``send`` and registers
        # ``_resume`` as a callback, so binding them once avoids a method
        # allocation per event on the hottest path in the library.
        self._send = generator.send
        self._resume_cb = self._resume
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the first step at the current simulation time.
        bootstrap = Event(sim)
        bootstrap._triggered = True
        bootstrap.add_callback(self._resume_cb)
        sim._schedule_dispatch(bootstrap)

    # -------------------------------------------------------------- execution
    def _resume(self, event: Event) -> None:
        """Advance the generator with the result of ``event``.

        This runs once per process wakeup — the second-hottest frame in
        the kernel after ``Simulator.run`` — so it reads slots directly
        instead of going through the ``triggered``/``ok`` properties and
        inlines the common branch of ``add_callback`` (waiting on a
        not-yet-dispatched event).
        """
        if self._triggered:
            # A stale wakeup (e.g. an interrupt racing with normal exit at the
            # same timestamp) must not re-enter a finished generator.
            return
        # ``_waiting_on`` is deliberately left stale here: it can only point
        # at an already-dispatched event (the one waking us), whose
        # ``_callbacks`` is None, so ``interrupt()`` treats it exactly like
        # None — and the Event branch below overwrites it anyway.
        try:
            if event._exception is None:
                target = self._send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._exception)
        except StopIteration as stop:
            self._exit(stop.value)
            return
        except Interrupt as interrupt:
            # Interrupt escaped the generator: treat as clean termination.
            self._exit(interrupt.cause)
            return
        except BaseException as exc:  # noqa: BLE001 - kernel boundary
            self._release()
            self.fail(exc)
            return
        # Inlined _wait_on, Event-first: almost every yield is an Event.
        if isinstance(target, Event):
            if target.sim is not self.sim:
                self._release()
                self.fail(SimulationError("yielded event belongs to a different simulator"))
                return
            self._waiting_on = target
            callbacks = target._callbacks
            if callbacks is None:
                self._resume(target)
            elif callbacks is NO_CALLBACKS:
                target._callbacks = self._resume_cb
            elif type(callbacks) is list:
                callbacks.append(self._resume_cb)
            else:
                target._callbacks = [callbacks, self._resume_cb]
            return
        self._wait_on(target)

    def _exit(self, value: Any) -> None:
        """Succeed with ``value`` once the generator has returned.

        With no joiner registered, dispatching the exit event would call
        nothing, so the process is marked processed without queueing it
        (a later joiner resumes at once, as on any dispatched event).
        """
        self._release()
        if self._callbacks is NO_CALLBACKS:
            self._triggered = True
            self._value = value
            self._callbacks = None
        else:
            self.succeed(value)

    def _release(self) -> None:
        """Drop the generator and the bound-method caches at termination.

        ``_resume_cb`` is a bound method of this process, a reference cycle
        that only the cyclic collector could otherwise reclaim; once the
        process has terminated nothing resumes its generator again.
        """
        self._generator = self._send = self._resume_cb = None
        self._waiting_on = None

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = self.sim.timeout(float(target))
        if not isinstance(target, Event):
            error = TypeError(
                f"process {self.name!r} yielded {target!r}; expected Event, Process or number"
            )
            self._release()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self._release()
            self.fail(SimulationError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume_cb)

    # ------------------------------------------------------------- interrupts
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a terminated process is a no-op, making cleanup code
        simple ("interrupt all attempts" is always safe).
        """
        if self.triggered:
            return
        event = Event(self.sim)
        event._triggered = True
        event._exception = Interrupt(cause)
        # Detach from whatever it was waiting on: the stale callback must not
        # resume a process that has moved on (or died) in the meantime.
        waiting = self._waiting_on
        if waiting is not None:
            cbs = waiting._callbacks
            if cbs is self._resume_cb:
                waiting._callbacks = NO_CALLBACKS
            elif type(cbs) is list:
                try:
                    cbs.remove(self._resume_cb)
                except ValueError:  # pragma: no cover - already dispatched
                    pass
        event.add_callback(self._resume_cb)
        event.defuse()
        self.sim._schedule_dispatch(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
