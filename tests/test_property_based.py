"""Property-based tests (hypothesis) for core data structures and invariants."""

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Fragment, QcutState, iterated_local_search, local_search
from repro.core.clustering import cluster_queries
from repro.core.cost import assignment_cost
from repro.core.perturbation import WordStream, perturb
from repro.engine import EngineConfig, QGraphEngine, Query
from repro.core import Controller
from repro.graph import GraphBuilder
from repro.partitioning import HashPartitioner
from repro.queries import SsspProgram
from repro.simulation.cluster import make_cluster
from repro.simulation.network import NetworkModel

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@st.composite
def qcut_states(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    num_units = draw(st.integers(min_value=1, max_value=6))
    frags = []
    for u in range(num_units):
        workers = draw(
            st.sets(st.integers(0, k - 1), min_size=1, max_size=k)
        )
        for w in workers:
            union = draw(st.integers(min_value=1, max_value=30))
            extra = draw(st.integers(min_value=0, max_value=20))
            frags.append(Fragment(u, w, union, union + extra))
    base = np.array(
        draw(
            st.lists(
                st.floats(min_value=50.0, max_value=500.0),
                min_size=k,
                max_size=k,
            )
        )
    )
    delta = draw(st.floats(min_value=0.1, max_value=0.9))
    return QcutState(num_units, k, frags, base, delta=delta)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.1, max_value=10.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    b = GraphBuilder(n)
    for u, v, w in edges:
        if u != v:
            b.add_edge(u, v, w)
    return b.build()


def dijkstra(graph, source):
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, np.inf):
            continue
        lo, hi = graph.indptr[u], graph.indptr[u + 1]
        for i in range(lo, hi):
            v = int(graph.indices[i])
            nd = d + float(graph.weights[i])
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


# ----------------------------------------------------------------------
# QcutState invariants
# ----------------------------------------------------------------------

class TestQcutStateProperties:
    @given(qcut_states())
    @settings(max_examples=50, deadline=None)
    def test_mass_conserved_by_local_search(self, state):
        before_w = state.weighted.sum()
        before_u = state.union.sum()
        out = local_search(state.copy())
        assert out.weighted.sum() == pytest.approx(before_w)
        assert out.union.sum() == pytest.approx(before_u)

    @given(qcut_states())
    @settings(max_examples=50, deadline=None)
    def test_local_search_never_increases_cost(self, state):
        before = state.cost()
        out = local_search(state.copy())
        assert out.cost() <= before + 1e-9

    @given(qcut_states())
    @settings(max_examples=50, deadline=None)
    def test_cost_nonnegative(self, state):
        assert state.cost() >= 0.0

    @given(qcut_states(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_perturb_conserves_mass(self, state, seed):
        out = perturb(state, WordStream(np.random.PCG64(seed)))
        assert out.weighted.sum() == pytest.approx(state.weighted.sum())
        assert out.union.sum() == pytest.approx(state.union.sum())

    @given(qcut_states(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ils_best_cost_never_above_initial_after_descent(self, state, seed):
        res = iterated_local_search(state, max_rounds=5, seed=seed)
        descended = local_search(state.copy()).cost()
        assert res.best_cost <= descended + 1e-9

    @given(qcut_states())
    @settings(max_examples=50, deadline=None)
    def test_placement_matches_matrices(self, state):
        out = local_search(state.copy())
        rebuilt_w = np.zeros_like(out.weighted)
        rebuilt_u = np.zeros_like(out.union)
        for (unit, origin), current in out.placement.items():
            union, weighted = out.fragment_sizes[(unit, origin)]
            rebuilt_w[unit, current] += weighted
            rebuilt_u[unit, current] += union
        assert np.allclose(rebuilt_w, out.weighted)
        assert np.allclose(rebuilt_u, out.union)


# ----------------------------------------------------------------------
# clustering invariants
# ----------------------------------------------------------------------

class TestClusteringProperties:
    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=25, unique=True),
        st.integers(min_value=1, max_value=10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cluster_count_bounded(self, ids, max_clusters, seed):
        overlaps = {
            (a, b): (a + b) % 7 + 1
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if (a + b) % 3 == 0
        }
        labels = cluster_queries(ids, overlaps, max_clusters, seed=seed)
        assert set(labels) == set(ids)
        assert len(set(labels.values())) <= max(max_clusters, 1)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=15, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_labels_dense_range(self, ids):
        labels = cluster_queries(ids, {}, len(ids))
        values = set(labels.values())
        assert values == set(range(len(values)))


# ----------------------------------------------------------------------
# engine-level: SSSP correctness on arbitrary graphs
# ----------------------------------------------------------------------

class TestEngineProperties:
    @given(small_digraphs(), st.integers(0, 2**31 - 1))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sssp_matches_dijkstra(self, graph, seed):
        rng = np.random.default_rng(seed)
        source = int(rng.integers(0, graph.num_vertices))
        k = min(2, graph.num_vertices)
        assignment = HashPartitioner(seed=seed).partition(graph, k)
        eng = QGraphEngine(
            graph,
            make_cluster("M2", k),
            assignment,
            controller=Controller(k),
            config=EngineConfig(adaptive=False),
        )
        eng.submit(Query(0, SsspProgram(source), (source,)))
        eng.run()
        got = eng.query_result(0)["distances"]
        want = dijkstra(graph, source)
        assert set(got) == set(want)
        for v, d in want.items():
            assert got[v] == pytest.approx(d, rel=1e-9)


# ----------------------------------------------------------------------
# network model invariants
# ----------------------------------------------------------------------

class TestNetworkProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e-2),
        st.floats(min_value=1e6, max_value=1e10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfer_time_monotone(self, latency, bandwidth, n):
        net = NetworkModel(latency=latency, bandwidth=bandwidth)
        assert net.transfer_time(n) <= net.transfer_time(n + 1) + 1e-12
        assert net.transfer_time(n) >= 0.0

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_batches_cover_messages(self, n):
        net = NetworkModel(latency=1e-4, bandwidth=1e8, batch_messages=32)
        batches = net.num_batches(n)
        assert (batches - 1) * 32 < n <= batches * 32


# ----------------------------------------------------------------------
# assignment_cost consistency with the state-level cost
# ----------------------------------------------------------------------

class TestCostConsistency:
    @given(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=10),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_cost_iff_every_query_on_one_worker(self, scopes_list, seed):
        scopes = {i: s for i, s in enumerate(scopes_list)}
        rng = np.random.default_rng(seed)
        k = 3
        assignment = rng.integers(0, k, size=31)
        cost = assignment_cost(scopes, assignment, k)
        split = any(
            len({int(assignment[v]) for v in scope}) > 1
            for scope in scopes.values()
        )
        if split:
            assert cost > 0
        else:
            assert cost == 0.0
