"""k-hop neighbourhood queries (the NScale-style workload of §5).

NScale [33] runs queries "in a k-hop neighborhood around a specified
vertex"; Q-Graph supports this as an ordinary query whose scope grows and
shrinks dynamically.  It is the unit-cost wavefront
(:mod:`repro.queries.wavefront`) capped at depth ``k``, with no target;
the answer lists the members and counts the tagged ones (a social-circle
statistic).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.graph.digraph import DiGraph
from repro.queries.wavefront import WavefrontProgram

__all__ = ["KHopProgram"]


class KHopProgram(WavefrontProgram):
    """Collect the ``k``-hop out-neighbourhood of ``center``."""

    kind = "khop"
    unit = True

    def __init__(self, center: int, k: int) -> None:
        super().__init__(center, max_depth=k)

    def result(self, state: Dict[int, Any], graph: DiGraph) -> Dict[str, Any]:
        members = sorted(state)
        tagged = 0
        if graph.has_tags():
            tags = graph.tags
            tagged = sum(1 for v in members if tags[v])
        return {
            "center": self.start,
            "k": self.max_depth,
            "size": len(members),
            "members": members,
            "tagged_members": tagged,
        }
