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


@dataclass(order=True)
class Event:
    """One scheduled occurrence.

    Ordering is by ``(time, seq)``; ``kind`` and ``payload`` are excluded
    from comparisons.
    """

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: Dict[str, Any] = field(compare=False, default_factory=dict)


class EventQueue:
    """Priority queue of :class:`Event` with cancellation support."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled: set = set()
        #: seqs currently sitting in the heap (not yet popped, not cancelled);
        #: guards ``cancel`` against already-popped or double-cancelled events,
        #: which would otherwise leave a stale seq in ``_cancelled`` forever
        #: and permanently undercount ``__len__``
        self._live: set = set()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Virtual time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def schedule(self, time: float, kind: str, **payload: Any) -> Event:
        """Add an event; returns it (its identity can be used to cancel)."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule {kind!r} at {time} before now={self._now}"
            )
        time = max(time, self._now)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time=time, seq=seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, seq, event))
        self._live.add(seq)
        return event

    def cancel(self, event: Event) -> None:
        """Mark an event so it is skipped when popped.

        Idempotent, and a no-op for events that were already popped: only a
        seq still live in the heap moves to the cancelled set, so ``__len__``
        stays exact no matter how often (or how late) callers cancel.
        """
        if event.seq in self._live:
            self._live.discard(event.seq)
            self._cancelled.add(event.seq)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or None when empty."""
        while self._heap:
            time, seq, event = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._live.discard(seq)
            self._now = time
            return event
        return None

    def peek(self) -> Optional[Event]:
        """The next pending event without popping it (None when empty)."""
        heap = self._heap
        while heap and heap[0][1] in self._cancelled:
            self._cancelled.discard(heapq.heappop(heap)[1])
        return heap[0][2] if heap else None

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
