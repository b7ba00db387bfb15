"""Application 2 (§1): personalized social-network analysis.

Users access their *social circles* — overlapping, localized neighbourhoods
of a shared small-world graph (Watts-Strogatz, the model the paper cites for
its high clustering coefficient).  We run four CGA query types concurrently:

* k-hop neighbourhood collection (friend circles),
* localized personalised PageRank (influence around a user),
* bounded-community detection (local WCC labels),
* friend suggestions ranked by mutual friends — a custom vertex program
  defined below, with no vectorized kernel of its own.

Run with:  python examples/social_network.py
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core import Controller
from repro.engine import EngineConfig, QGraphEngine, Query, VertexProgram
from repro.graph import watts_strogatz
from repro.partitioning import BfsRegionPartitioner
from repro.queries import KHopProgram, LocalPageRankProgram, LocalWccProgram
from repro.simulation.cluster import make_cluster


class FriendSuggestions(VertexProgram):
    """Friends of friends, ranked by how many friends they share with the
    user.  A message is ``(hops, mutual)``: the user sends ``(1, 1)`` to
    each friend, each friend sends ``(2, 1)`` to each of its friends, and
    the combiner adds up the mutual-friend counts of one hop.  It defines
    no ``make_kernel``, so the engine calls ``compute`` once per active
    vertex."""

    kind = "suggest"

    def __init__(self, user):
        self.user = user

    def init_messages(self, graph, initial_vertices):
        return [(v, (0, 0)) for v in initial_vertices]

    def combine(self, a, b):
        return (a[0], a[1] + b[1]) if a[0] == b[0] else min(a, b)

    def compute(self, ctx, vertex, state, message):
        if state is not None:  # the user or a friend: already placed
            return state
        hops = message[0]
        if hops < 2:
            ctx.send_to_out_neighbors(lambda _nbr, _weight: (hops + 1, 1))
        return message

    def result(self, state, graph):
        ranked = sorted(
            (-mutual, v) for v, (hops, mutual) in state.items() if hops == 2
        )
        return [(v, -negated) for negated, v in ranked]


def main():
    # a small-world social graph: high clustering, short paths
    graph = watts_strogatz(4000, 8, 0.05, seed=3)
    k = 4
    assignment = BfsRegionPartitioner(seed=1).partition(graph, k)
    engine = QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(adaptive=False),
    )

    rng = np.random.default_rng(9)
    users = rng.integers(0, graph.num_vertices, size=12)
    newcomers = rng.integers(0, graph.num_vertices, size=2)
    qid = 0
    submitted = []
    for user in users[:4]:
        q = Query(qid, KHopProgram(int(user), 2), (int(user),))
        engine.submit(q)
        submitted.append(("k-hop circle", q))
        qid += 1
    for user in users[4:8]:
        q = Query(qid, LocalPageRankProgram(int(user), epsilon=1e-3), (int(user),))
        engine.submit(q)
        submitted.append(("local PPR", q))
        qid += 1
    for user in users[8:]:
        q = Query(qid, LocalWccProgram(max_hops=3), (int(user),))
        engine.submit(q)
        submitted.append(("local WCC", q))
        qid += 1
    for user in newcomers:
        q = Query(qid, FriendSuggestions(int(user)), (int(user),))
        engine.submit(q)
        submitted.append(("suggestions", q))
        qid += 1

    trace = engine.run()

    rows = []
    for kind, q in submitted:
        rec = trace.queries[q.query_id]
        result = engine.query_result(q.query_id)
        if kind == "k-hop circle":
            detail = f"{result['size']} friends within 2 hops"
        elif kind == "local PPR":
            top = result["top"][1][0] if len(result["top"]) > 1 else "-"
            detail = f"{len(result['scores'])} touched, top influence: v{top}"
        elif kind == "suggestions":
            best, mutual = result[0]
            detail = f"{len(result)} candidates, best v{best} ({mutual} mutual)"
        else:
            detail = f"{result['visited']} vertices labelled"
        rows.append(
            (q.query_id, kind, rec.latency * 1000, rec.locality, detail)
        )
    print(
        format_table(
            ["query", "type", "latency ms", "locality", "result"],
            rows,
            title="Concurrent social-circle analytics on a shared graph",
        )
    )
    print(
        f"\n{len(trace.finished_queries())} queries, "
        f"mean latency {trace.mean_latency() * 1000:.2f} ms, "
        f"remote messages {trace.remote_messages}, "
        f"local messages {trace.local_messages}"
    )


if __name__ == "__main__":
    main()
