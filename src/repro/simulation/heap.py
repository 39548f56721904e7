"""An indexed binary event heap with O(log n) cancel/reschedule.

The seed kernel kept a bare ``heapq`` list: O(log n) push/pop, but no way
to remove an entry without draining the heap — a cancelled timeout (an
interrupted process, a rescheduled retry) stayed queued and was paid for
at dispatch time.  :class:`EventHeap` keeps the C-speed ``heapq``
sifting for the hot push/pop path and adds an *index* (entry sequence
number -> cancelled tombstone) so entries can be cancelled in O(1) and
rescheduled in O(log n) amortized:

* ``cancel`` records the handle as a tombstone; the entry is discarded
  for free the next time it reaches the heap top.
* When tombstones outnumber live entries the array is compacted with
  one O(n) ``heapify``, so dead entries can never occupy more than half
  the heap — the classic lazy-deletion amortization.

Handles are **single-use**: a sequence number identifies one queued
entry, and once that entry has been popped or cancelled the handle is
dead.  Passing a dead handle to :meth:`cancel`/:meth:`reschedule` is a
caller error (the simulator guards with ``Event._heap_seq``, which is
``None`` exactly when no live entry exists).  This contract is what lets
the heap skip per-push/per-pop liveness bookkeeping — the size is simply
``len(entries) - len(tombstones)``.

Ordering is identical to the seed kernel: entries sort by
``(time, priority, sequence)`` with the sequence number breaking ties in
insertion order, which is what makes two identically-seeded runs
dispatch in exactly the same order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["EventHeap"]

#: One queued entry: (time, priority, sequence, payload).
Entry = Tuple[float, int, int, Any]


class EventHeap:
    """Binary min-heap of ``(time, priority, seq, payload)`` entries.

    The heap hands out monotonically increasing sequence numbers itself;
    the sequence number doubles as the entry handle for :meth:`cancel`.
    """

    __slots__ = ("_entries", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        #: sequence numbers cancelled but still physically queued
        self._cancelled: set = set()
        self._seq = 0

    # ------------------------------------------------------------------ size
    def __len__(self) -> int:
        return len(self._entries) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self._entries) > len(self._cancelled)

    # ------------------------------------------------------------------- ops
    def push(self, when: float, priority: int, payload: Any) -> int:
        """Queue ``payload``; returns the entry's handle (its seq number)."""
        self._seq = seq = self._seq + 1
        heappush(self._entries, (when, priority, seq, payload))
        return seq

    def cancel(self, seq: int) -> None:
        """Remove the queued entry with handle ``seq``.

        O(1) now; the tombstone is skipped when popped, and a compaction
        keeps tombstones from exceeding the live population.  ``seq``
        must be the handle of a currently queued entry (handles are
        single-use — see the module docstring).
        """
        cancelled = self._cancelled
        cancelled.add(seq)
        if len(cancelled) * 2 > len(self._entries):
            self._compact()

    def reschedule(self, seq: int, when: float, priority: int, payload: Any) -> int:
        """Cancel ``seq`` and queue ``payload`` at ``when``; new handle."""
        self.cancel(seq)
        return self.push(when, priority, payload)

    def pop(self) -> Entry:
        """Remove and return the earliest live entry."""
        entries = self._entries
        cancelled = self._cancelled
        while entries:
            entry = heappop(entries)
            if cancelled and entry[2] in cancelled:
                cancelled.discard(entry[2])
                continue
            return entry
        raise IndexError("pop from an empty EventHeap")

    def peek(self) -> Optional[Entry]:
        """The earliest live entry without removing it, or ``None``."""
        entries = self._entries
        cancelled = self._cancelled
        while entries:
            entry = entries[0]
            if cancelled and entry[2] in cancelled:
                heappop(entries)
                cancelled.discard(entry[2])
                continue
            return entry
        return None

    def clear(self) -> None:
        self._entries.clear()
        self._cancelled.clear()

    # ------------------------------------------------------------- internals
    def _compact(self) -> None:
        """Drop every tombstone in one O(n) pass (amortized by cancel).

        Mutates the containers *in place*: ``Simulator.run`` holds direct
        aliases to them for its unrolled dispatch loop, and those aliases
        must survive a compaction triggered by a cancel inside a callback.
        """
        cancelled = self._cancelled
        self._entries[:] = [e for e in self._entries if e[2] not in cancelled]
        cancelled.clear()
        heapify(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventHeap live={len(self)} "
            f"tombstones={len(self._cancelled)}>"
        )
