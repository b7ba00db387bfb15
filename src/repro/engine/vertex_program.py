"""Vertex-centric programming model.

The paper follows "the predominant vertex-centric programming model where
each vertex iteratively recomputes its own vertex data based on messages from
neighboring vertices" (§2).  A query is a tuple ``(f, Vsub)`` of a vertex
function and an initial active-vertex set; the engine executes ``f`` under
bulk-synchronous semantics with per-query barriers.

:class:`VertexProgram` is the ``f`` — subclass it to define a query type.
Three extension points matter:

``init_messages``
    Seeds the computation: messages delivered to the initial vertices at
    iteration 0 (this is how ``Vsub`` becomes active).
``compute``
    The vertex function.  It receives the query-local state of the vertex
    (``None`` on first activation), the combined incoming message, and a
    :class:`ComputeContext` for sending messages / contributing to
    aggregators.  It returns the new state (returning the old state object
    unchanged is fine).
``combine``
    Message combiner — merged sender-side and receiver-side, like Pregel
    combiners.  Must be commutative and associative.

A fourth, optional extension point is ``make_kernel``: a
:class:`repro.engine.kernels.QueryKernel` that runs a whole frontier in a
few numpy operations (every built-in query type has one).  A program that
returns ``None``, the default, runs through
:class:`~repro.engine.kernels.VertexFunctionKernel`, which calls
``compute`` once per frontier vertex; either way the engine keeps one
representation of query state.

Aggregators mirror Pregel aggregators: values contributed during iteration
``i`` are reduced at the barrier and visible to every vertex in iteration
``i+1`` (the engine reduces them locally when the query runs under a *local*
barrier, for free — one of the perks of locality).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.graph.digraph import DiGraph

__all__ = ["VertexProgram", "ComputeContext", "AggregatorSpec"]

#: (reduce function, identity element)
AggregatorSpec = Tuple[Callable[[Any, Any], Any], Any]


class ComputeContext:
    """Per-(vertex, iteration) facade handed to :meth:`VertexProgram.compute`.

    Collects outgoing messages and aggregator contributions; exposes the
    graph, the current vertex id, and the aggregator values committed at
    the previous barrier.
    """

    __slots__ = ("graph", "vertex", "_sent", "_aggregated", "_agg_committed")

    def __init__(self, graph: DiGraph, agg_committed: Dict[str, Any]) -> None:
        self.graph = graph
        self.vertex = -1
        #: ``(target, message)`` sent by the current vertex, in send order
        self._sent: List[Tuple[int, Any]] = []
        #: ``(aggregator, value)`` contributed by the current vertex
        self._aggregated: List[Tuple[str, Any]] = []
        self._agg_committed = agg_committed

    # -- engine side -----------------------------------------------------
    def _reset(self, vertex: int) -> None:
        self.vertex = vertex
        self._sent = []
        self._aggregated = []

    # -- program side ----------------------------------------------------
    def send(self, target: int, message: Any) -> None:
        """Send ``message`` to vertex ``target`` (delivered next iteration)."""
        if not 0 <= target < self.graph.num_vertices:
            raise EngineError(f"message target {target} out of range")
        self._sent.append((target, message))

    def send_to_out_neighbors(self, message_fn: Callable[[int, float], Any]) -> None:
        """Send ``message_fn(neighbor, edge_weight)`` along every out-edge."""
        lo = self.graph.indptr[self.vertex]
        hi = self.graph.indptr[self.vertex + 1]
        for i in range(lo, hi):
            nbr = int(self.graph.indices[i])
            self._sent.append((nbr, message_fn(nbr, float(self.graph.weights[i]))))

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to aggregator ``name`` (visible next iteration)."""
        if name not in self._agg_committed:
            raise EngineError(f"unknown aggregator {name!r}")
        self._aggregated.append((name, value))

    def aggregated(self, name: str) -> Any:
        """Aggregator value committed at the previous barrier (or identity)."""
        if name not in self._agg_committed:
            raise EngineError(f"unknown aggregator {name!r}")
        return self._agg_committed[name]


class VertexProgram(abc.ABC):
    """The vertex function ``f(Dv, m*->v)`` plus its messaging contract."""

    #: Query-type label used in traces and reports (e.g. "sssp", "poi").
    kind: str = "program"

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def init_messages(self, graph: DiGraph, initial_vertices: Tuple[int, ...]) -> List[Tuple[int, Any]]:
        """Seed messages delivered to ``Vsub`` at iteration 0."""

    @abc.abstractmethod
    def compute(
        self, ctx: ComputeContext, vertex: int, state: Any, message: Any
    ) -> Any:
        """The vertex function; returns the new query-local vertex state."""

    # ------------------------------------------------------------------
    def combine(self, a: Any, b: Any) -> Any:
        """Message combiner (default: keep both in a tuple)."""
        if isinstance(a, tuple):
            return a + (b,) if not isinstance(b, tuple) else a + b
        if isinstance(b, tuple):
            return (a,) + b
        return (a, b)

    def aggregators(self) -> Dict[str, AggregatorSpec]:
        """Aggregator declarations: name -> (reduce_fn, identity)."""
        return {}

    def make_kernel(self, graph: DiGraph) -> Optional["Any"]:
        """Vectorized iteration kernel for this program, or ``None``.

        A returned :class:`repro.engine.kernels.QueryKernel` runs the
        program's iterations; its ``step`` must be semantically identical
        to :meth:`compute` (see ``docs/engine.md``).  With the default
        ``None`` the program runs through
        :class:`~repro.engine.kernels.VertexFunctionKernel`, which calls
        :meth:`compute` itself, so custom programs work without a kernel.
        """
        return None

    def result(self, state: Dict[int, Any], graph: DiGraph) -> Any:
        """Extract the query answer from the final vertex states."""
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r})"


def reduce_aggregator(
    spec: AggregatorSpec, committed: Any, partial: Optional[Tuple[Any, ...]]
) -> Any:
    """Fold a worker-partial tuple into a committed aggregator value."""
    reduce_fn, _identity = spec
    value = committed
    if partial:
        for item in partial:
            value = item if value is None else reduce_fn(value, item)
    return value
