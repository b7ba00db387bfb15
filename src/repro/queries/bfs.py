"""Breadth-first search over hop counts.

The unit-cost wavefront (:mod:`repro.queries.wavefront`): the unweighted
counterpart of SSSP, for social-network queries (friend-of-friend
distance).  An optional ``target`` prunes it like SSSP's, and an optional
``max_depth`` turns it into a bounded exploration.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.graph.digraph import DiGraph
from repro.queries.wavefront import WavefrontProgram

__all__ = ["BfsProgram"]


class BfsProgram(WavefrontProgram):
    """Hop distances from ``start``; optional ``target`` and ``max_depth``."""

    kind = "bfs"
    unit = True

    def result(self, state: Dict[int, Any], graph: DiGraph) -> Dict[str, Any]:
        out: Dict[str, Any] = {"start": self.start, "reached": len(state)}
        if self.target is not None:
            out["depth"] = state.get(self.target)
        else:
            out["depths"] = dict(state)
        return out
