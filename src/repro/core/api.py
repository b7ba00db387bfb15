"""The one Table 2 message with a payload of its own: ``move``.

Table 2 of the paper names the controller/worker protocol: ``stats``,
``barrierSynch`` and ``scheduleQuery`` (worker or user -> controller),
``move``, ``barrierReady`` and ``executeQuery`` (controller -> worker).
In this simulation all but ``move`` are engine events and method calls
rather than message objects: statistics ride on each iteration's barrier
synchronization (:meth:`~repro.core.controller.Controller.on_iteration`,
the piggybacking §3.4 describes), queries are submitted to and admitted by
the engine's scheduler, and barrier releases are engine events.

``move(LS(q, w), w, w')`` is the low-level translation of a Q-cut move: a
concrete vertex set and its source and target worker.  The controller
builds a :class:`~repro.core.controller.MovePlan` from these
:class:`MoveRequest` objects, and the engine applies them under STOP/START.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MoveRequest"]


@dataclass(frozen=True)
class MoveRequest:
    """``move(LS(q, w), w, w')`` — reassign a local scope's vertices.

    ``vertices`` is the concrete vertex set of the local scope at plan time
    (the low-level translation of the high-level Q-cut move).
    """

    src: int
    dst: int
    vertices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "vertices", np.asarray(self.vertices, dtype=np.int64)
        )

    @property
    def size(self) -> int:
        return int(self.vertices.size)
