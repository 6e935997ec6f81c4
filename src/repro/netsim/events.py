"""A deterministic, integer-coded event queue for the ISP simulator.

Events are ordered by ``(time, sequence)``: the sequence number is a
monotonically increasing tie-breaker, so two events scheduled for the
same instant fire in scheduling order.  Cancellation is lazy (tombstone
flags), the standard technique for binary-heap schedulers.

An event is one plain list, ``[time, seq, kind, subject, arg,
cancelled]`` (indices :data:`TIME` … :data:`CANCELLED`): ``kind`` is a
small integer code chosen by the caller, ``subject`` names what the
event is about (the simulator's subscriber id, ``-1`` for none) and
``arg`` carries one extra value (a policy epoch index).  ``heapq``
compares entries in C and ``seq`` is unique, so comparison never
reaches the kind or the arguments.  The entry doubles as the
cancellation handle.

The simulator drains the queue with :meth:`EventQueue.pop_until`, one
generator that pops past tombstones and yields the live entries up to
an end time; events scheduled while draining are seen as soon as they
become the earliest.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, List, Optional

#: A scheduled event: ``[time, seq, kind, subject, arg, cancelled]``.
Handle = List[Any]

#: Indices into a :data:`Handle`.
TIME, SEQ, KIND, SUBJECT, ARG, CANCELLED = range(6)


class EventQueue:
    """Min-heap of timestamped, integer-coded events with stable tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Handle] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        """The number of live events (a scan: no hot path asks)."""
        return sum(1 for entry in self._heap if not entry[CANCELLED])

    def __bool__(self) -> bool:
        return any(not entry[CANCELLED] for entry in self._heap)

    def schedule(self, time: float, kind: Any, subject: int = -1, arg: Any = 0) -> Handle:
        """Add an event; returns its entry, usable with :meth:`cancel`."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        entry = [time, next(self._counter), kind, subject, arg, False]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Handle) -> None:
        """Cancel a scheduled event (no-op if already fired or cancelled)."""
        entry[CANCELLED] = True

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][CANCELLED]:
            heapq.heappop(heap)
        return heap[0][TIME] if heap else None

    def pop(self) -> Handle:
        """Remove and return the entry of the earliest live event."""
        for entry in self.pop_until(float("inf")):
            return entry
        raise IndexError("pop from empty event queue")

    def pop_until(self, end: float) -> Iterator[Handle]:
        """Yield live entries with ``time <= end`` in order, removing them.

        A yielded entry is marked fired (its ``cancelled`` flag set), so
        a later :meth:`cancel` of it is a no-op.  The first live entry
        past ``end`` stays queued.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            if entry[5]:  # CANCELLED: a tombstone
                continue
            if entry[0] > end:  # TIME
                heapq.heappush(heap, entry)
                return
            entry[5] = True
            yield entry


__all__ = ["ARG", "CANCELLED", "EventQueue", "Handle", "KIND", "SEQ", "SUBJECT", "TIME"]
