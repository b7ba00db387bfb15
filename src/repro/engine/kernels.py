"""Iteration kernels: how one iteration of one query runs.

Every running query executes through a :class:`QueryKernel`.  One
iteration of one query — on one worker, or on all its workers that are
ready at the same instant — is one :meth:`QueryKernel.step` over the whole
frontier.  A kernel provides:

* dense per-query *state buffers* (``make_state``), one slot per vertex;
* the message encoding of the *array mailbox* (:class:`ArrayMailbox`):
  per-worker frontiers are ``(vertices, messages)`` array pairs, combined
  lazily per target vertex when the worker consumes them;
* :meth:`QueryKernel.step`, one iteration over a combined frontier.

The built-in programs each bring a vectorized kernel: a few numpy
operations over the CSR arrays that mirror the program's ``compute``
exactly — same improvement checks, same aggregator contributions, same
pruning rules, same message values — so the answers equal the scalar
reference (bit-identical for the ``min``-combining programs; the
sum-combining PageRank kernel may differ in the last float bits because
vector summation reorders the additions).  SSSP, POI, BFS and k-hop are
one min-label wavefront and share :class:`WavefrontKernel`; reachability,
local PageRank and local WCC have one kernel each.

A program without a kernel of its own (``make_kernel`` returns ``None``,
the default) runs through :class:`VertexFunctionKernel`: an object-dtype
state column and object message arrays, with :meth:`VertexProgram.compute`
called once per frontier vertex and ``program.combine`` folding each
vertex's messages.  So there is one representation of query state, and a
custom program goes through the same mailboxes, scope tracking,
checkpoints and rebucketing as the built-in ones.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.vertex_program import (
    AggregatorSpec,
    ComputeContext,
    VertexProgram,
    reduce_aggregator,
)
from repro.errors import EngineError
from repro.graph.digraph import DiGraph

__all__ = [
    "ArrayMailbox",
    "QueryKernel",
    "group_by_owner",
    "contribute_partial",
    "copy_kernel_state",
    "scope_columns",
    "WavefrontKernel",
    "ReachabilityKernel",
    "LocalPageRankKernel",
    "LocalWccKernel",
    "VertexFunctionKernel",
    "combine_by_vertex",
    "expand_edges",
]

#: sentinel for "no state yet" in integer distance buffers
_INT_UNSET = np.iinfo(np.int64).max

#: aggregator name -> (frontier positions, values): one entry per
#: contributing frontier vertex, unreduced (see :meth:`QueryKernel.step`)
Contributions = Dict[str, Tuple[np.ndarray, np.ndarray]]

#: what :meth:`QueryKernel.step` returns
StepOutput = Tuple[np.ndarray, np.ndarray, np.ndarray, Contributions]


def _runs_by_vertex(
    vertices: np.ndarray, messages: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort by vertex: the sorted vertices, the messages in that
    order (each vertex's in mailbox order) and where each vertex's run
    starts.  ``vertices`` must not be empty."""
    order = vertices.argsort(kind="stable")
    sv = vertices[order]
    first = np.empty(sv.size, dtype=bool)
    first[0] = True
    np.not_equal(sv[1:], sv[:-1], out=first[1:])
    return sv, messages[order], first.nonzero()[0]


def combine_by_vertex(
    vertices: np.ndarray, messages: np.ndarray, combine: np.ufunc
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate targets: unique sorted vertices, combined messages."""
    if vertices.size == 0:
        return vertices, messages
    sv, sm, starts = _runs_by_vertex(vertices, messages)
    return sv[starts], combine.reduceat(sm, starts)


def _object_array(items: Sequence[Any]) -> np.ndarray:
    """A 1-D object array holding ``items`` as they are (``np.asarray``
    would turn equal-length tuples into a 2-D array)."""
    return np.fromiter(items, dtype=object, count=len(items))


def contribute_partial(
    agg_partials: Dict[int, Dict[str, Any]],
    worker: int,
    specs: Dict[str, AggregatorSpec],
    name: str,
    values: Tuple[Any, ...],
) -> None:
    """Fold one worker's ``values`` for aggregator ``name`` into one
    contribution to that worker's partial.

    Mirrors :meth:`ComputeContext.aggregate`: a worker's partial is created
    at its first contribution and holds a tuple of contributions per
    aggregator, folded by ``reduce_aggregator`` at the barrier.
    """
    spec = specs.get(name)
    if spec is None:
        raise EngineError(f"unknown aggregator {name!r}")
    partial = agg_partials.setdefault(worker, {})
    partial[name] = partial.get(name, ()) + (reduce_aggregator(spec, None, values),)


def group_by_owner(
    owners: np.ndarray, vertices: np.ndarray, messages: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(owner, vertex_chunk, message_chunk)`` in ascending owner order.

    ``owners[i]`` is the routing key of message ``i``: the owning worker,
    ``assignment[vertices]``.  The sort is stable, so every chunk keeps the
    messages' original order — the worker layer relies on that: the sends
    of a fused multi-worker pass arrive here sender-major (see
    :meth:`QueryKernel.step`), so each destination's chunk is the
    concatenation of what the senders, run one after the other, would have
    appended to that destination's mailbox.
    """
    if vertices.size == 0:
        return
    order = owners.argsort(kind="stable")
    sv = vertices[order]
    sm = messages[order]
    counts = np.bincount(owners)
    present = counts.nonzero()[0]
    lo = 0
    for owner, hi in zip(present.tolist(), counts[present].cumsum().tolist()):
        yield owner, sv[lo:hi], sm[lo:hi]
        lo = hi


def expand_edges(indptr: np.ndarray, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge indices of all out-edges of ``vertices`` plus their source positions.

    Returns ``(edge_idx, src_pos)`` where ``edge_idx`` indexes the CSR
    ``indices``/``weights`` arrays and ``src_pos[i]`` is the position in
    ``vertices`` the edge ``edge_idx[i]`` originates from.
    """
    row_ends = indptr[vertices + 1]
    degrees = row_ends - indptr[vertices]
    ends = degrees.cumsum()
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src_pos = np.arange(vertices.size, dtype=np.int64).repeat(degrees)
    # the edges of ``vertices[i]`` fill positions [ends[i] - degrees[i],
    # ends[i]) of the output and CSR slots [row_ends[i] - degrees[i],
    # row_ends[i]): one constant shift per source
    edge_idx = np.arange(total, dtype=np.int64) + (row_ends - ends).repeat(degrees)
    return edge_idx, src_pos


class ArrayMailbox:
    """A per-worker query frontier as chunks of ``(vertices, messages)`` arrays.

    Producers append raw (possibly duplicated) chunks; the consumer combines
    them into a unique sorted frontier with the kernel's combiner ufunc.
    This keeps delivery O(1) amortized and defers the sort to one place.
    """

    __slots__ = ("_vertex_chunks", "_message_chunks", "_size")

    def __init__(self) -> None:
        self._vertex_chunks: List[np.ndarray] = []
        self._message_chunks: List[np.ndarray] = []
        #: messages held: the sum of the chunk sizes, kept by ``append``
        self._size = 0

    def append(self, vertices: np.ndarray, messages: np.ndarray) -> None:
        size = vertices.size
        if size == 0:
            return
        self._vertex_chunks.append(vertices)
        self._message_chunks.append(messages)
        self._size += size

    def __bool__(self) -> bool:
        return bool(self._vertex_chunks)

    def __len__(self) -> int:
        return self._size

    def concat(self) -> Tuple[np.ndarray, np.ndarray]:
        """All chunks concatenated (duplicates not yet combined)."""
        return ArrayMailbox.concat_all((self,))

    @staticmethod
    def concat_all(boxes: Sequence["ArrayMailbox"]) -> Tuple[np.ndarray, np.ndarray]:
        """The chunks of several mailboxes concatenated, box after box."""
        vertex_chunks = [c for box in boxes for c in box._vertex_chunks]
        if not vertex_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        message_chunks = [c for box in boxes for c in box._message_chunks]
        if len(vertex_chunks) == 1:
            return vertex_chunks[0], message_chunks[0]
        return np.concatenate(vertex_chunks), np.concatenate(message_chunks)

    def clone(self) -> "ArrayMailbox":
        """Deep copy for checkpointing: chunks are snapshotted, not shared.

        Producers append fresh arrays and never mutate delivered chunks, but
        a checkpoint must survive the runtime being rolled back and replayed
        — so the chunk arrays themselves are copied.
        """
        out = ArrayMailbox()
        out._vertex_chunks = [c.copy() for c in self._vertex_chunks]
        out._message_chunks = [c.copy() for c in self._message_chunks]
        out._size = self._size
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayMailbox(pending={len(self)})"


def scope_columns(state: Any, scope_mask: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The scope vertices (ascending ``int64``) and each dense state column
    gathered at them: what :meth:`QueryKernel.answer_dict` zips together,
    and all a finished query keeps of its state."""
    scope = np.flatnonzero(scope_mask)
    parts = state if isinstance(state, tuple) else (state,)
    return (scope, *(column[scope] for column in parts))


def copy_kernel_state(state: Any) -> Any:
    """Copy a kernel's dense state (ndarray or tuple of ndarrays) for the
    checkpoint layer.  An object column's entries are shared, not copied:
    ``compute`` returns a new state rather than mutating the old one."""
    if isinstance(state, tuple):
        return tuple(part.copy() for part in state)
    return state.copy()


class QueryKernel(abc.ABC):
    """How the iterations of one :class:`VertexProgram` run.

    Subclasses define the dense state layout and one frontier step; the
    runtime/worker layers own scope tracking, message routing and the
    aggregator barrier protocol.
    """

    #: dtype of the message array
    message_dtype: Any = np.float64
    #: combiner ufunc applied per target vertex (must match ``program.combine``)
    combine: np.ufunc = np.minimum
    #: fill value for state slots of vertices added after ``make_state``
    #: (kernels whose state is a single dense array use the default
    #: :meth:`grow_state`; tuple-state kernels override it).  ``None`` is
    #: :class:`VertexFunctionKernel`'s "no state yet"
    state_fill: Any = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def make_state(self, graph: DiGraph) -> Any:
        """Allocate the dense per-query state buffers."""

    def grow_state(self, state: Any, new_n: int) -> Any:
        """Extend the dense state buffers to cover ``new_n`` vertices.

        Called by the runtime when a graph mutation appends vertices while
        the query is running; new slots get the same "no state yet" value
        ``make_state`` would have used.  The default handles the common
        single-array state via :attr:`state_fill`.
        """
        if state.size >= new_n:
            return state
        grown = np.full(new_n, self.state_fill, dtype=state.dtype)
        grown[: state.size] = state
        return grown

    @abc.abstractmethod
    def step(
        self,
        graph: DiGraph,
        state: Any,
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        """One iteration over a combined frontier.

        ``vertices`` are distinct; the frontier may span several workers
        (the worker layer fuses all workers of a query that are ready at
        the same instant into one call), so nothing here may reduce *across*
        the frontier.  Mutates ``state`` in place and returns ``(targets,
        out_messages, sources, contributions)``:

        * ``targets`` / ``out_messages`` — the raw (uncombined) outgoing
          messages, ordered by the position of their sender in ``vertices``;
        * ``sources[i]`` — that position: the index into ``vertices`` of
          the vertex that sent message ``i``.  **Non-decreasing, and the
          worker layer depends on it**: the frontier of a fused pass is
          sorted by (run position, vertex), so sender-ordered output is
          member-major, and routing by destination alone (one stable sort)
          then leaves every mailbox the bytes sequential execution gives it;
        * ``contributions`` — aggregator name -> ``(positions, values)``,
          one entry per contribution of a frontier vertex.  The worker layer
          folds them per worker with the program's own reduce function.
        """

    def answer_dict(self, scope: np.ndarray, *columns: np.ndarray) -> Dict[int, Any]:
        """Sparse ``{vertex: state}`` view, built from :func:`scope_columns`:
        what ``program.result`` reads.  The default fits a single-column
        state whose entries are the values ``compute`` returns; ``.tolist()``
        gives the same Python types (on an object column, the objects)."""
        (values,) = columns
        return dict(zip(scope.tolist(), values.tolist()))

    # ------------------------------------------------------------------
    def encode_messages(
        self, pairs: Iterable[Tuple[int, Any]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Convert ``(vertex, message)`` pairs (e.g. seeds) into arrays, one
        message per entry (a tuple message stays one object entry)."""
        pairs = list(pairs)
        vertices = np.fromiter(
            (v for v, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        messages = np.fromiter(
            (m for _, m in pairs), dtype=self.message_dtype, count=len(pairs)
        )
        return vertices, messages

    def combine_arrays(
        self, vertices: np.ndarray, messages: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return combine_by_vertex(vertices, messages, self.combine)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# the min-label wavefront (SSSP / POI / BFS / k-hop)
# ----------------------------------------------------------------------
class WavefrontKernel(QueryKernel):
    """One step of the min-label wavefront (mirrors
    :meth:`repro.queries.wavefront.WavefrontProgram.compute`).

    ``unit`` picks ``int64`` hop labels and edge cost 1, else ``float64``
    distances and the CSR weights.  A vertex whose label improved and that
    is terminal (``== target``, or tagged when ``tagged``) contributes its
    label to the ``bound`` aggregator and stays silent.  Any other improved
    vertex is pruned when its label reaches the committed bound, then when
    it reaches ``max_depth``; it relays ``label + cost`` to each
    out-neighbour, and only candidates below the bound are sent.
    """

    combine = np.minimum

    def __init__(
        self,
        unit: bool = False,
        target: Optional[int] = None,
        tagged: bool = False,
        max_depth: Optional[int] = None,
    ) -> None:
        self.unit = unit
        self.target = target
        self.tagged = tagged
        self.max_depth = max_depth
        self.message_dtype = np.int64 if unit else np.float64
        self.state_fill = _INT_UNSET if unit else np.inf

    def make_state(self, graph: DiGraph) -> np.ndarray:
        return np.full(graph.num_vertices, self.state_fill, dtype=self.message_dtype)

    def step(
        self,
        graph: DiGraph,
        labels: np.ndarray,
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        current = labels[vertices]
        best = np.minimum(messages, current)
        ip = (best < current).nonzero()[0]
        labels[vertices] = best
        ib = best[ip]

        contribs: Contributions = {}
        if self.tagged or self.target is not None:
            improved = vertices[ip]
            terminal = graph.tags[improved] if self.tagged else improved == self.target
            if terminal.any():
                contribs["bound"] = (ip[terminal], ib[terminal])
                ip = ip[~terminal]
                ib = ib[~terminal]
        bound = agg_committed.get("bound")
        if bound is not None:
            keep = ib < bound
            ip = ip[keep]
            ib = ib[keep]
        if self.max_depth is not None:
            keep = ib < self.max_depth
            ip = ip[keep]
            ib = ib[keep]

        csr = graph.csr()
        edge_idx, src_pos = expand_edges(csr.indptr, vertices[ip])
        targets = csr.indices[edge_idx]
        candidates = ib[src_pos] + (1 if self.unit else csr.weights[edge_idx])
        sources = ip[src_pos]
        if bound is not None:
            keep = candidates < bound
            return targets[keep], candidates[keep], sources[keep], contribs
        return targets, candidates, sources, contribs


# ----------------------------------------------------------------------
# reachability
# ----------------------------------------------------------------------
class ReachabilityKernel(QueryKernel):
    """Directed flood with found-flag early termination (mirrors
    :class:`repro.queries.reachability.ReachabilityProgram`)."""

    message_dtype = np.bool_
    combine = np.logical_or
    state_fill = False

    def __init__(self, target: int) -> None:
        self.target = int(target)

    def make_state(self, graph: DiGraph) -> np.ndarray:
        return np.zeros(graph.num_vertices, dtype=bool)

    def step(
        self,
        graph: DiGraph,
        visited: np.ndarray,
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        fp = (~visited[vertices]).nonzero()[0]
        visited[vertices] = True

        contribs: Contributions = {}
        at_target = vertices[fp] == self.target
        if at_target.any():
            hits = fp[at_target]
            contribs["found"] = (hits, np.ones(hits.size, dtype=bool))
        if agg_committed.get("found"):
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=bool), empty, contribs
        fp = fp[~at_target]

        csr = graph.csr()
        edge_idx, src_pos = expand_edges(csr.indptr, vertices[fp])
        targets = csr.indices[edge_idx]
        return targets, np.ones(targets.size, dtype=bool), fp[src_pos], contribs

    def answer_dict(self, scope: np.ndarray, *columns: np.ndarray) -> Dict[int, Any]:
        return dict.fromkeys(scope.tolist(), True)


# ----------------------------------------------------------------------
# localized personalized PageRank (forward push)
# ----------------------------------------------------------------------
class LocalPageRankKernel(QueryKernel):
    """Forward-push PPR (mirrors
    :class:`repro.queries.pagerank_local.LocalPageRankProgram`).

    Note: messages combine by summation, so the vectorized path may differ
    from the scalar ``compute`` in the last float bits (addition order).
    """

    message_dtype = np.float64
    combine = np.add

    def __init__(self, alpha: float, epsilon: float) -> None:
        self.alpha = float(alpha)
        self.epsilon = float(epsilon)

    def make_state(self, graph: DiGraph) -> Tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        return (np.zeros(n, dtype=np.float64), np.zeros(n, dtype=np.float64))

    def grow_state(
        self, state: Tuple[np.ndarray, np.ndarray], new_n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        p, r = state
        if p.size >= new_n:
            return state
        gp = np.zeros(new_n, dtype=np.float64)
        gr = np.zeros(new_n, dtype=np.float64)
        gp[: p.size] = p
        gr[: r.size] = r
        return (gp, gr)

    def step(
        self,
        graph: DiGraph,
        state: Tuple[np.ndarray, np.ndarray],
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        p, r = state
        r[vertices] += messages
        csr = graph.csr()
        degrees = csr.indptr[vertices + 1] - csr.indptr[vertices]
        thresholds = self.epsilon * np.maximum(degrees, 1)
        pp = (r[vertices] >= thresholds).nonzero()[0]
        if pp.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64), empty, {}
        pv = vertices[pp]
        residual = r[pv]
        p[pv] += self.alpha * residual
        pdeg = degrees[pp]
        dangling = pdeg == 0
        if dangling.any():
            p[pv[dangling]] += (1.0 - self.alpha) * residual[dangling]
        sp = pp[~dangling]
        shares = (1.0 - self.alpha) * residual[~dangling] / pdeg[~dangling]
        r[pv] = 0.0

        edge_idx, src_pos = expand_edges(csr.indptr, vertices[sp])
        targets = csr.indices[edge_idx]
        return targets, shares[src_pos], sp[src_pos], {}

    def answer_dict(self, scope: np.ndarray, *columns: np.ndarray) -> Dict[int, Any]:
        ranks, residuals = columns
        return dict(zip(scope.tolist(), zip(ranks.tolist(), residuals.tolist())))


# ----------------------------------------------------------------------
# bounded min-label propagation (local WCC)
# ----------------------------------------------------------------------
class LocalWccKernel(QueryKernel):
    """Hop-budgeted min-label propagation (mirrors
    :class:`repro.queries.wcc_local.LocalWccProgram`).

    ``(label, hops_left)`` messages are packed into one int64 key
    ``label * (max_hops + 2) + (max_hops - hops)`` so that the program's
    lexicographic preference (smaller label, then larger remaining budget)
    becomes a plain ``min``.
    """

    message_dtype = np.int64
    combine = np.minimum
    state_fill = _INT_UNSET

    def __init__(self, max_hops: int) -> None:
        self.max_hops = int(max_hops)
        self._base = self.max_hops + 2

    def encode_key(self, label: int, hops: int) -> int:
        return label * self._base + (self.max_hops - hops)

    def decode_key(self, key: int) -> Tuple[int, int]:
        return int(key // self._base), int(self.max_hops - key % self._base)

    def encode_messages(
        self, pairs: Iterable[Tuple[int, Any]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        pairs = list(pairs)
        vertices = np.fromiter(
            (v for v, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        keys = np.fromiter(
            (self.encode_key(label, hops) for _, (label, hops) in pairs),
            dtype=np.int64,
            count=len(pairs),
        )
        return vertices, keys

    def make_state(self, graph: DiGraph) -> np.ndarray:
        return np.full(graph.num_vertices, _INT_UNSET, dtype=np.int64)

    def step(
        self,
        graph: DiGraph,
        keys: np.ndarray,
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        current = keys[vertices]
        best = np.minimum(messages, current)
        ip = (best < current).nonzero()[0]
        keys[vertices] = best
        ib = best[ip]
        hops = self.max_hops - ib % self._base
        keep = hops > 0
        ip = ip[keep]
        ib = ib[keep]

        csr = graph.csr()
        edge_idx, src_pos = expand_edges(csr.indptr, vertices[ip])
        targets = csr.indices[edge_idx]
        # relaying (label, hops - 1) increments the packed key by exactly 1
        return targets, ib[src_pos] + 1, ip[src_pos], {}

    def answer_dict(self, scope: np.ndarray, *columns: np.ndarray) -> Dict[int, Any]:
        (keys,) = columns
        return dict(zip(scope.tolist(), map(self.decode_key, keys.tolist())))


# ----------------------------------------------------------------------
# the scalar vertex function, for programs without a kernel of their own
# ----------------------------------------------------------------------
class VertexFunctionKernel(QueryKernel):
    """Runs :meth:`VertexProgram.compute` once per frontier vertex.

    The kernel of every program whose ``make_kernel`` returns ``None``.
    Its state is one object column (``None``: no state yet); its messages
    are object arrays, and each vertex's messages fold with
    ``program.combine`` in mailbox order, as the program's own combiner
    would see them.  Sends and aggregator contributions come back
    sender-ordered, like every kernel's.
    """

    message_dtype = object

    def __init__(self, program: VertexProgram) -> None:
        self.program = program

    def make_state(self, graph: DiGraph) -> np.ndarray:
        return np.full(graph.num_vertices, None, dtype=object)

    def combine_arrays(
        self, vertices: np.ndarray, messages: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if vertices.size == 0:
            return vertices, messages
        sv, sm, starts = _runs_by_vertex(vertices, messages)
        values = sm.tolist()
        bounds = starts.tolist() + [len(values)]
        folded = [
            functools.reduce(self.program.combine, values[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return sv[starts], _object_array(folded)

    def step(
        self,
        graph: DiGraph,
        state: np.ndarray,
        vertices: np.ndarray,
        messages: np.ndarray,
        agg_committed: Dict[str, Any],
    ) -> StepOutput:
        compute = self.program.compute
        ctx = ComputeContext(graph, agg_committed)
        targets: List[int] = []
        sent: List[Any] = []
        sources: List[int] = []
        contributed: Dict[str, Tuple[List[int], List[Any]]] = {}
        for position, (vertex, message) in enumerate(
            zip(vertices.tolist(), messages.tolist())
        ):
            ctx._reset(vertex)
            state[vertex] = compute(ctx, vertex, state[vertex], message)
            for target, out in ctx._sent:
                targets.append(target)
                sent.append(out)
                sources.append(position)
            for name, value in ctx._aggregated:
                positions, values = contributed.setdefault(name, ([], []))
                positions.append(position)
                values.append(value)
        contribs: Contributions = {
            name: (np.array(positions, dtype=np.int64), _object_array(values))
            for name, (positions, values) in contributed.items()
        }
        return (
            np.array(targets, dtype=np.int64),
            _object_array(sent),
            np.array(sources, dtype=np.int64),
            contribs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexFunctionKernel({self.program!r})"
