"""A test-side admission policy: a :class:`~repro.engine.Scheduler` the
library does not ship, handed to ``EngineConfig.scheduler`` as an instance.

Its order (newest arrival first) is one neither built-in policy produces,
so the admission invariants are checked under a policy that reorders the
queue, through the same pass-an-instance path a caller's own policy takes.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.engine import Query, Scheduler


class LifoScheduler(Scheduler):
    """Newest arrival first."""

    name = "lifo"

    def __init__(self) -> None:
        self._stack: List[Query] = []

    def add(self, query: Query) -> None:
        self._stack.append(query)

    def pop(self) -> Optional[Query]:
        return self._stack.pop() if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)

    def pending_queries(self) -> List[Query]:
        return list(self._stack)


#: the two built-in policies by name, then the custom one
POLICIES = ["fifo", "locality", LifoScheduler.name]


def scheduler_for(policy: str) -> Union[str, Scheduler]:
    """``EngineConfig.scheduler`` for a :data:`POLICIES` entry: the name of
    a built-in policy, or a fresh :class:`LifoScheduler` (one per engine —
    a scheduler holds its engine's queue)."""
    return LifoScheduler() if policy == LifoScheduler.name else policy
