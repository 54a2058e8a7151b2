"""The shared event-queue kernel: a (time, sequence)-ordered min-heap.

Both simulators of the library -- the message-driven
:class:`repro.des.simulator.EventSimulator` and the step-driven
:class:`repro.sysmodel.simulator.SystemSimulator` -- used to own their own
``heapq`` + ``itertools.count`` scheduling code.  This module is the single
implementation they now delegate to.

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
from typing import Any, Iterator, List, Optional, Tuple


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

    def next_sequence(self) -> int:
        """Hand out the next global sequence number (also used for event ids)."""
        return next(self._counter)

    def schedule(self, time: float, event: Any, sequence: Optional[int] = None) -> int:
        """Insert *event* at *time*; returns the sequence number used for ordering.

        A caller that already drew a number from :meth:`next_sequence` (for
        example to stamp it into a public event dataclass) passes it back via
        *sequence* so queue order and event numbering agree.
        """
        if sequence is None:
            sequence = next(self._counter)
        heapq.heappush(self._heap, (time, sequence, event))
        return sequence

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
