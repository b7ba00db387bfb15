"""Deterministic discrete-event queue.

A thin wrapper over :mod:`heapq` with a monotonically increasing sequence
number as tie-breaker so that events scheduled at the same virtual time pop
in scheduling order — this makes the whole simulation deterministic and
therefore testable bit-for-bit.

The heap holds the :class:`Event` records themselves: an event is a named
tuple ``(time, seq, kind, payload)``, so the heap orders events by time,
then by their unique ``seq`` — a comparison never reaches ``kind`` — and
every sift compares in C, with no wrapper tuple or second object per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


class Event(NamedTuple):
    """One scheduled occurrence, and its own heap entry: tuples order by
    ``time``, then by the unique ``seq``."""

    time: float
    seq: int
    kind: str
    payload: Dict[str, Any]


#: builds an :class:`Event` from its field tuple without the generated
#: ``__new__``'s Python-level call (the queue makes one per event)
_new_event = tuple.__new__


class EventQueue:
    """Priority queue of :class:`Event`; a scheduled event always fires."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Virtual time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: str, **payload: Any) -> Event:
        """Add an event; returns it."""
        if time < self._now:
            if time < self._now - 1e-12:
                raise SimulationError(
                    f"cannot schedule {kind!r} at {time} before now={self._now}"
                )
            time = self._now
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event, (time, seq, kind, payload))
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or None when empty."""
        heap = self._heap
        if not heap:
            return None
        event = heapq.heappop(heap)
        self._now = event[0]
        return event

    def peek(self) -> Optional[Event]:
        """The next pending event without popping it (None when empty)."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event without popping it."""
        return self._heap[0][0] if self._heap else None

    def drain(self) -> Tuple[Event, ...]:
        """Pop everything (mostly useful in tests)."""
        out = []
        while True:
            event = self.pop()
            if event is None:
                break
            out.append(event)
        return tuple(out)
