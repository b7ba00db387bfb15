"""Single-source shortest path (SSSP) — the paper's primary query (§2, §4.1).

*"SSSP calculates the shortest path between a given start and end vertex."*

The vertex-centric formulation is the classic Bellman-Ford wavefront: each
vertex keeps its best-known distance from the start and, upon improvement,
offers ``distance + w(e)`` to its out-neighbours.  Messages combine with
``min`` so each vertex processes a single value per iteration.

Early termination (what keeps hotspot queries *localized*): the best-known
distance to the target is shared through a ``min`` aggregator.  A vertex
only relays a distance that could still improve the target — with
non-negative weights no shortest path to the target passes through a vertex
whose distance already exceeds the bound, so pruning is exact.  The explored
region collapses from the whole graph to (roughly) an ellipse around
start/end, reproducing the localized global query scopes that Q-cut exploits.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engine.kernels import SsspKernel
from repro.engine.vertex_program import ComputeContext, VertexProgram
from repro.errors import QueryError
from repro.graph.digraph import DiGraph

__all__ = ["SsspProgram"]


class SsspProgram(VertexProgram):
    """SSSP from ``start``; optionally target-pruned toward ``target``.

    State per vertex: best-known distance (float).  With ``target=None`` the
    program computes distances to every reachable vertex (batch SSSP).
    """

    kind = "sssp"

    def __init__(self, start: int, target: Optional[int] = None) -> None:
        if start < 0:
            raise QueryError("start vertex must be non-negative")
        if target is not None and target < 0:
            raise QueryError("target vertex must be non-negative")
        self.start = int(start)
        self.target = int(target) if target is not None else None

    # ------------------------------------------------------------------
    def init_messages(self, graph: DiGraph, initial_vertices: Tuple[int, ...]):
        return [(v, 0.0) for v in initial_vertices]

    def combine(self, a: float, b: float) -> float:
        return a if a <= b else b

    def aggregators(self):
        return {"bound": (min, None)}

    def make_kernel(self, graph: DiGraph) -> SsspKernel:
        return SsspKernel(target=self.target)

    def compute(self, ctx: ComputeContext, vertex: int, state: Any, message: Any) -> Any:
        best = message if state is None else (message if message < state else state)
        if state is not None and best >= state:
            return state  # no improvement: stay silent (vote to halt)

        if self.target is not None and vertex == self.target:
            ctx.aggregate("bound", best)
            return best

        bound = ctx.aggregated("bound")
        if bound is not None and best >= bound:
            return best  # cannot be on a shortest path to the target

        graph = ctx.graph
        lo = graph.indptr[vertex]
        hi = graph.indptr[vertex + 1]
        indices = graph.indices
        weights = graph.weights
        send = ctx.send
        if bound is None:
            for i in range(lo, hi):
                send(int(indices[i]), best + float(weights[i]))
        else:
            for i in range(lo, hi):
                candidate = best + float(weights[i])
                if candidate < bound:
                    send(int(indices[i]), candidate)
        return best

    # ------------------------------------------------------------------
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
