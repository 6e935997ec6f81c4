"""A deterministic event queue for the ISP simulator.

Events are ordered by ``(time, sequence)``: the sequence number is a
monotonically increasing tie-breaker, so two events scheduled for the
same instant fire in scheduling order.  Cancellation is lazy (tombstone
flags), the standard technique for binary-heap schedulers.

Heap entries are plain ``[time, seq, payload, cancelled]`` lists, so
``heapq`` compares them in C; ``seq`` is unique, so comparison never
reaches the payload.  The entry doubles as the cancellation handle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, List, Optional, Tuple

#: A scheduled event: ``[time, seq, payload, cancelled]``.
Handle = List[Any]


class EventQueue:
    """Min-heap of timestamped events with stable tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Handle] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def schedule(self, time: float, payload: Any) -> Handle:
        """Add an event; returns a handle usable with :meth:`cancel`."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        entry = [float(time), next(self._counter), payload, False]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: Handle) -> None:
        """Cancel a scheduled event (no-op if already fired or cancelled)."""
        if not entry[3]:
            entry[3] = True
            self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Tuple[float, Any]:
        """Remove and return ``(time, payload)`` of the earliest live event."""
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        entry = heapq.heappop(self._heap)
        self._live -= 1
        # Mark fired so a later cancel() of the same handle is a no-op.
        entry[3] = True
        return entry[0], entry[2]

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3]:
            heapq.heappop(heap)

    def drain_until(self, end: float) -> Iterator[Tuple[float, Any]]:
        """Yield events with ``time <= end`` in order, removing them."""
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > end:
                return
            yield self.pop()


__all__ = ["EventQueue"]
