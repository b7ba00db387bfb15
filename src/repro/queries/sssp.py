"""Single-source shortest path (SSSP) — the paper's primary query (§2, §4.1).

*"SSSP calculates the shortest path between a given start and end vertex."*

A weighted wavefront (:mod:`repro.queries.wavefront`) whose terminal
vertex is the target; without a target it computes distances to every
reachable vertex (batch SSSP).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.graph.digraph import DiGraph
from repro.queries.wavefront import WavefrontProgram

__all__ = ["SsspProgram"]


class SsspProgram(WavefrontProgram):
    """SSSP from ``start``; optionally target-pruned toward ``target``.

    State per vertex: best-known distance (float).
    """

    kind = "sssp"

    def __init__(self, start: int, target: Optional[int] = None) -> None:
        super().__init__(start, target)

    def result(self, state: Dict[int, Any], graph: DiGraph) -> Dict[str, Any]:
        """``distance`` to the target (or full distance map), scope size."""
        out: Dict[str, Any] = {
            "start": self.start,
            "target": self.target,
            "settled": len(state),
        }
        if self.target is not None:
            out["distance"] = state.get(self.target)
        else:
            out["distances"] = dict(state)
        return out
