"""Point-of-interest (POI) query (§4.1).

*"POI retrieves the closest vertex with a specified tag (e.g. gas station)
to a given start vertex."*

A weighted wavefront (:mod:`repro.queries.wavefront`) whose terminal
vertices are the tagged ones: the ring stops growing once every frontier
vertex is farther than the nearest point of interest found so far.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.queries.wavefront import WavefrontProgram

__all__ = ["PoiProgram"]


class PoiProgram(WavefrontProgram):
    """Nearest tagged vertex from ``start`` (distance = travel time)."""

    kind = "poi"
    tagged = True

    def __init__(self, start: int) -> None:
        super().__init__(start)

    def init_messages(self, graph: DiGraph, initial_vertices: Tuple[int, ...]):
        if not graph.has_tags():
            raise QueryError("POI query requires a tagged graph")
        return super().init_messages(graph, initial_vertices)

    def result(self, state: Dict[int, Any], graph: DiGraph) -> Dict[str, Any]:
        """The nearest tagged vertex and its distance (None when not found)."""
        nearest: Optional[int] = None
        nearest_distance = float("inf")
        tags = graph.tags
        if tags is not None:
            for vertex, distance in state.items():
                if tags[vertex] and distance < nearest_distance:
                    nearest = vertex
                    nearest_distance = distance
        return {
            "start": self.start,
            "poi": nearest,
            "distance": nearest_distance if nearest is not None else None,
            "settled": len(state),
        }
