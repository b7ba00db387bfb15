"""Deterministic discrete-event queue.

A thin wrapper over :mod:`heapq` with a monotonically increasing sequence
number as tie-breaker so that events scheduled at the same virtual time pop
in scheduling order — this makes the whole simulation deterministic and
therefore testable bit-for-bit.

The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so a
comparison never reaches the event and every sift compares in C.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(slots=True)
class Event:
    """One scheduled occurrence: a slotted record, never compared — the
    heap orders the ``(time, seq, event)`` tuples by their unique ``seq``."""

    time: float
    seq: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class EventQueue:
    """Priority queue of :class:`Event`; a scheduled event always fires."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
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
        event = Event(time, seq, kind, payload)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or None when empty."""
        if not self._heap:
            return None
        time, _seq, event = heapq.heappop(self._heap)
        self._now = time
        return event

    def peek(self) -> Optional[Event]:
        """The next pending event without popping it (None when empty)."""
        return self._heap[0][2] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event without popping it."""
        event = self.peek()
        return None if event is None else event.time

    def drain(self) -> Tuple[Event, ...]:
        """Pop everything (mostly useful in tests)."""
        out = []
        while True:
            event = self.pop()
            if event is None:
                break
            out.append(event)
        return tuple(out)
