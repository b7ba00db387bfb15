"""Answer checks, run after the timed window.

On the immutable-graph workloads the target distance of every SSSP query,
the target depth of every BFS query and the verdict of every reachability
query are recomputed with ``scipy.sparse.csgraph`` — an implementation that
shares no code with the engine.  Answers on a churning graph depend on the
cut at which each query saw the topology, so there (and for the four
programs scipy has no counterpart for) the check is the digest: it must
be the same on every run of the same inputs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.engine.engine import QGraphEngine
from repro.engine.query import Query
from repro.graph.digraph import DiGraph

__all__ = ["unfinished_queries", "wrong_answers", "answer_digest"]

#: sources handed to one scipy call (bounds the dense distance matrix)
_CHUNK = 128


def unfinished_queries(engine: QGraphEngine, queries: List[Query]) -> List[int]:
    """Ids of submitted queries without an end time at quiescence."""
    records = engine.trace.queries
    return [
        q.query_id
        for q in queries
        if q.query_id not in records or math.isnan(records[q.query_id].end_time)
    ]


def _distances(graph: DiGraph, sources: List[int], unweighted: bool) -> Dict[int, np.ndarray]:
    csr = graph.csr()
    n = graph.num_vertices
    matrix = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    out: Dict[int, np.ndarray] = {}
    for lo in range(0, len(sources), _CHUNK):
        chunk = sources[lo : lo + _CHUNK]
        rows = dijkstra(matrix, directed=True, indices=chunk, unweighted=unweighted)
        out.update(zip(chunk, rows))
    return out


def _expected(query: Query, weighted: Dict[int, np.ndarray], hops: Dict[int, np.ndarray]) -> Any:
    """The oracle's value for the field :func:`_answered` extracts."""
    program = query.program
    if query.kind == "sssp":
        d = float(weighted[program.start][program.target])
        return None if math.isinf(d) else d
    h = float(hops[program.start][program.target])
    if query.kind == "reach":
        return not math.isinf(h)
    if math.isinf(h) or (program.max_depth is not None and h > program.max_depth):
        return None
    return int(h)


_ANSWER_FIELD = {"sssp": "distance", "bfs": "depth", "reach": "reachable"}


def wrong_answers(engine: QGraphEngine, queries: List[Query]) -> List[int]:
    """Ids of finished SSSP/BFS/reachability queries whose answer differs
    from scipy's on the (immutable) graph the engine ran on."""
    checked = [
        q for q in queries
        if q.kind in _ANSWER_FIELD and q.program.target is not None
        and q.query_id in engine.runtimes
    ]
    graph = engine.graph
    weighted = _distances(
        graph, sorted({q.program.start for q in checked if q.kind == "sssp"}), False
    )
    hops = _distances(
        graph, sorted({q.program.start for q in checked if q.kind != "sssp"}), True
    )
    wrong = []
    for q in checked:
        got = engine.query_result(q.query_id)[_ANSWER_FIELD[q.kind]]
        want = _expected(q, weighted, hops)
        if isinstance(want, float) and got is not None:
            # both sum the same edge weights, possibly along another
            # shortest path: equal up to float summation order
            ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = got == want
        if not ok:
            wrong.append(q.query_id)
    return wrong


def answer_digest(engine: QGraphEngine, queries: List[Query]) -> str:
    """SHA-256 over every finished query's full answer, in query-id order."""
    h = hashlib.sha256()
    for q in sorted(queries, key=lambda q: q.query_id):
        if q.query_id in engine.runtimes:
            h.update(repr((q.query_id, engine.query_result(q.query_id))).encode())
    return h.hexdigest()
