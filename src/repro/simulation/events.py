"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence inside a simulation.  It starts
*pending*, is *triggered* exactly once (either :meth:`Event.succeed` or
:meth:`Event.fail`), and then has its callbacks dispatched by the simulator
at the simulation time at which it was triggered.

The design intentionally mirrors the small core of SimPy-style kernels while
remaining fully self-contained: the rest of the library (Hadoop model,
schedulers, experiments) builds only on :class:`Event`,
:class:`~repro.simulation.engine.Simulator` and
:class:`~repro.simulation.process.Process`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Event", "SimulationError"]

#: Shared sentinel for "pending, no callbacks registered yet".  ``_callbacks``
#: holds one of: this tuple (pending, empty), a single callable (the common
#: case — one process waiting), a list (several waiters), or ``None``
#: (dispatched).  The compact representation spares every event a list
#: allocation plus an iterator at dispatch; only this module, the simulator's
#: run loop and ``Process`` know about it.
NO_CALLBACKS: tuple = ()


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, re-entrant run)."""


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.simulation.engine.Simulator`.

    Notes
    -----
    Events carry a *value* (set by :meth:`succeed`) or an *exception*
    (set by :meth:`fail`).  Processes that yield on a failed event have the
    exception re-raised inside their generator, so failures propagate like
    ordinary Python exceptions.
    """

    __slots__ = (
        "sim",
        "_callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_defused",
    )

    def __init__(self, sim: "Simulator") -> None:  # noqa: F821 - circular typing
        self.sim = sim
        self._callbacks: Any = NO_CALLBACKS
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._defused = False

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been dispatched."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's success value, or raises the failure exception."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    # --------------------------------------------------------------- triggers
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Callbacks run at the current simulation time, after already-queued
        events at this timestamp.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule_dispatch(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise it."""
        self._defused = True

    # -------------------------------------------------------------- callbacks
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is dispatched.

        If the event was already dispatched, the callback runs immediately.
        """
        cbs = self._callbacks
        if cbs is None:
            callback(self)
        elif cbs is NO_CALLBACKS:
            self._callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._callbacks = [cbs, callback]

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)
        if self._exception is not None and not self._defused:
            # Nobody waited on this failure: surface it so bugs do not pass
            # silently (Zen of Python) -- matches SimPy semantics.
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"
