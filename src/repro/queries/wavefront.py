"""The min-label wavefront behind SSSP, POI, BFS and k-hop.

The paper's own queries, SSSP and POI (§4.1), and the CGA-style BFS and
NScale-style k-hop extensions are one Bellman-Ford wavefront.  Each vertex
keeps the best label (distance or hop count) it has been offered and, on
improvement, relays ``label + cost`` to its out-neighbours: the cost is
the edge weight, or 1 for the hop-counting programs.  Messages combine
with ``min``, so a vertex sees one value per iteration.

The wave stops in three ways:

* at a *terminal* vertex — the query's target, or for POI any tagged
  vertex — which contributes its label to the shared ``min`` aggregator
  ``bound`` instead of relaying it;
* at the committed ``bound``: a vertex whose label already reaches it
  stays silent, and only candidates below it are sent.  With non-negative
  costs no shortest path to a terminal passes through such a vertex, so
  the pruning is exact.  It is what keeps hotspot queries *localized*: the
  explored region collapses from the whole graph to roughly an ellipse
  around start and target, the localized global query scopes that Q-cut
  exploits;
* at the depth cap ``max_depth`` (BFS's option, k-hop's ``k``): a vertex
  at that label keeps it and relays nothing.

:class:`WavefrontProgram` is that vertex function and
:class:`~repro.engine.kernels.WavefrontKernel` the same step over a whole
frontier; the four programs differ only in their parameters and in how
they read the final labels.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.engine.kernels import WavefrontKernel
from repro.engine.vertex_program import ComputeContext, VertexProgram
from repro.errors import QueryError
from repro.graph.digraph import DiGraph

__all__ = ["WavefrontProgram"]


class WavefrontProgram(VertexProgram):
    """A min-label wavefront from ``start``, optionally ending at
    ``target`` and capped at ``max_depth``.

    State per vertex: the best label offered so far.
    """

    #: ``int`` hop labels and edge cost 1, else ``float`` distances over
    #: the edge weights
    unit = False
    #: tagged vertices are terminal (POI)
    tagged = False

    def __init__(
        self,
        start: int,
        target: Optional[int] = None,
        max_depth: Optional[int] = None,
    ) -> None:
        if start < 0:
            raise QueryError("start vertex must be non-negative")
        if target is not None and target < 0:
            raise QueryError("target vertex must be non-negative")
        if max_depth is not None and max_depth < 0:
            raise QueryError("max_depth must be non-negative")
        self.start = int(start)
        self.target = int(target) if target is not None else None
        self.max_depth = int(max_depth) if max_depth is not None else None

    # ------------------------------------------------------------------
    def init_messages(self, graph: DiGraph, initial_vertices: Tuple[int, ...]):
        zero = 0 if self.unit else 0.0
        return [(v, zero) for v in initial_vertices]

    def combine(self, a: Any, b: Any) -> Any:
        return a if a <= b else b

    def aggregators(self):
        return {"bound": (min, None)}

    def make_kernel(self, graph: DiGraph) -> WavefrontKernel:
        return WavefrontKernel(
            unit=self.unit,
            target=self.target,
            tagged=self.tagged,
            max_depth=self.max_depth,
        )

    def compute(self, ctx: ComputeContext, vertex: int, state: Any, message: Any) -> Any:
        best = message if state is None or message < state else state
        if state is not None and best >= state:
            return state  # no improvement: stay silent (vote to halt)

        graph = ctx.graph
        if vertex == self.target or (self.tagged and graph.tags[vertex]):
            ctx.aggregate("bound", best)
            return best

        bound = ctx.aggregated("bound")
        if bound is not None and best >= bound:
            return best  # cannot be on a shortest path to a terminal
        if self.max_depth is not None and best >= self.max_depth:
            return best

        indices = graph.indices
        weights = graph.weights
        for i in range(graph.indptr[vertex], graph.indptr[vertex + 1]):
            candidate = best + (1 if self.unit else float(weights[i]))
            if bound is None or candidate < bound:
                ctx.send(int(indices[i]), candidate)
        return best
