"""The event-queue kernel: a (time, sequence)-ordered min-heap.

The future-event list of the step-driven
:class:`repro.sysmodel.simulator.SystemSimulator`.

Events are arbitrary objects; the queue imposes the ordering externally by
storing ``(time, sequence, event)`` triples, so event classes need neither a
``__lt__`` nor a sequence field of their own.  Sequence numbers are handed
out by the queue and guarantee FIFO order among events scheduled for the
same simulated time -- the property every deterministic-replay guarantee in
this repository rests on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, List, Tuple


class EventQueue:
    """A deterministic future-event list ordered by ``(time, sequence)``."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, time: float, event: Any) -> None:
        """Insert *event* at *time*, after every event already scheduled for that time."""
        heapq.heappush(self._heap, (time, next(self._counter), event))

    def pop_due(self, until: float) -> Iterator[Tuple[float, Any]]:
        """Yield ``(time, event)`` for every event with ``time <= until``, in order.

        This is the one drain primitive: the heap is re-examined on every
        resumption, so events scheduled while the consumer handles an
        earlier one are yielded in their ``(time, sequence)`` place, and a
        consumer that stops iterating leaves the rest pending.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= until:
            time, _, event = pop(heap)
            yield time, event

    def clear(self) -> None:
        """Drop all pending events (sequence numbering keeps running)."""
        self._heap.clear()


__all__ = ["EventQueue"]
