"""Integration tests for the adaptive repartitioning loop (§3.4)."""

import numpy as np
import pytest

import repro.core.controller as controller_module
from repro.core import Controller, ControllerConfig
from repro.engine import EngineConfig, QGraphEngine, Query, SyncMode
from repro.graph import generate_road_network, grid_graph
from repro.partitioning import DomainPartitioner, HashPartitioner
from repro.queries import SsspProgram
from repro.simulation.cluster import make_cluster
from repro.workload import WorkloadGenerator, PhaseSpec


@pytest.fixture(scope="module")
def rn():
    # 2 cities per worker, window mass well below graph size: the regime in
    # which moving a city's queries onto one worker stays within δ
    return generate_road_network(
        num_cities=8,
        num_urban_vertices=8000,
        seed=21,
        region_size=100.0,
        zipf_exponent=0.45,
    )


def adaptive_engine(rn, k=4, adaptive=True):
    assignment = HashPartitioner(seed=0).partition(rn.graph, k)
    controller = Controller(
        k,
        ControllerConfig(
            mu=10.0,
            phi=0.7,
            delta=0.25,
            # keep the windowed scope mass below the graph size so
            # consolidation stays balance-feasible — the regime of §4
            max_tracked_queries=32,
            qcut_compute_time=0.002,
            ils_rounds=60,
            qcut_cooldown=0.01,
            min_queries_for_qcut=4,
        ),
    )
    return QGraphEngine(
        rn.graph,
        make_cluster("M2", k),
        assignment,
        controller=controller,
        config=EngineConfig(adaptive=adaptive),
    )


def hotspot_workload(rn, n, seed=5):
    gen = WorkloadGenerator(rn, seed=seed)
    return gen.generate([PhaseSpec(num_queries=n, kind="sssp", label="t")])


class TestAdaptation:
    def test_repartitioning_happens(self, rn):
        eng = adaptive_engine(rn)
        hotspot_workload(rn, 48).submit_all(eng)
        trace = eng.run()
        assert len(trace.repartitions) >= 1
        assert all(r.moved_vertices > 0 for r in trace.repartitions)

    def test_locality_improves_over_run(self, rn):
        eng = adaptive_engine(rn)
        hotspot_workload(rn, 128).submit_all(eng)
        trace = eng.run()
        recs = sorted(trace.finished_queries(), key=lambda q: q.end_time)
        first = np.mean([q.locality for q in recs[: len(recs) // 4]])
        last = np.mean([q.locality for q in recs[-len(recs) // 4 :]])
        assert last > first + 0.15

    def test_queries_correct_across_repartitioning(self, rn):
        """Answers must be identical with and without adaptation."""
        static = adaptive_engine(rn, adaptive=False)
        wl = hotspot_workload(rn, 32)
        wl.submit_all(static)
        static.run()
        expected = {
            q.query_id: static.query_result(q.query_id)["distance"]
            for q, _t in wl.entries
        }

        adaptive = adaptive_engine(rn, adaptive=True)
        wl2 = hotspot_workload(rn, 32)  # same seed => same queries
        wl2.submit_all(adaptive)
        trace = adaptive.run()
        assert len(trace.repartitions) >= 1, "test needs at least one Q-cut"
        for q, _t in wl2.entries:
            got = adaptive.query_result(q.query_id)["distance"]
            want = expected[q.query_id]
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want)

    def test_assignment_changes_but_stays_valid(self, rn):
        eng = adaptive_engine(rn)
        before = eng.assignment.copy()
        hotspot_workload(rn, 48).submit_all(eng)
        eng.run()
        after = eng.assignment
        assert not np.array_equal(before, after)
        assert after.min() >= 0 and after.max() < 4
        assert after.shape == before.shape

    def test_no_repartitions_when_disabled(self, rn):
        eng = adaptive_engine(rn, adaptive=False)
        hotspot_workload(rn, 32).submit_all(eng)
        trace = eng.run()
        assert len(trace.repartitions) == 0

    def test_repartition_cost_decreases(self, rn):
        """Each Q-cut's ILS must improve (or keep) its snapshot cost."""
        eng = adaptive_engine(rn)
        hotspot_workload(rn, 64).submit_all(eng)
        trace = eng.run()
        for rec in trace.repartitions:
            assert rec.cost_after <= rec.cost_before

    def test_all_queries_finish_despite_pauses(self, rn):
        eng = adaptive_engine(rn)
        wl = hotspot_workload(rn, 48)
        wl.submit_all(eng)
        trace = eng.run()
        assert len(trace.finished_queries()) == 48


def graph_spanning_run(adaptive, sanitizer=None):
    """Twelve SSSP queries on a 12 x 12 grid, each settling every vertex.

    The first four finish before the rest arrive, and the controller waits
    for a fifth query, so every snapshot holds at least four whole-graph
    scopes."""
    graph = grid_graph(12, 12)
    k = 4
    engine = QGraphEngine(
        graph,
        make_cluster("M2", k),
        HashPartitioner(seed=0).partition(graph, k),
        controller=Controller(
            k,
            ControllerConfig(
                mu=10.0,
                qcut_compute_time=1.0e-4,
                qcut_cooldown=1.0e-4,
                min_queries_for_qcut=5,
            ),
        ),
        config=EngineConfig(adaptive=adaptive, sanitizer=sanitizer),
    )
    for qid in range(12):
        source = (37 * qid) % graph.num_vertices
        arrival = 0.0 if qid < 4 else 0.01 + qid * 1.0e-4
        engine.submit(Query(qid, SsspProgram(source), (source,)), arrival)
    trace = engine.run()
    return engine, trace, {qid: engine.query_result(qid) for qid in range(12)}


class TestHeldSnapshots:
    def test_graph_spanning_queries_never_stop_the_cluster(self):
        """Every tracked scope is the whole graph, so every snapshot's units
        list the graph several times over and the controller holds it: the
        adaptive run plans but never repartitions, and answers exactly as
        the static run does (sanitized: the hold leaves no STOP half-open)."""
        engine, trace, answers = graph_spanning_run(adaptive=True, sanitizer=True)
        _static, _trace, static_answers = graph_spanning_run(adaptive=False)
        assert engine.controller.qcut_count > 0
        assert trace.repartitions == []
        assert len(trace.finished_queries()) == 12
        assert answers == static_answers


class BacklogSpy(Controller):
    """Records per Q-cut the admission backlog at the snapshot and the
    ``balance_first`` its ILS ran with (``None``: no ILS ran)."""

    engine = None

    def __init__(self, k, config):
        super().__init__(k, config)
        self.records = []

    def begin_qcut(self, assignment, now, saturated=True):
        self.records.append(
            {"backlog": len(self.engine.scheduler), "balance_first": None}
        )
        return super().begin_qcut(assignment, now, saturated)


def domain_run(rn, monkeypatch, num_queries, arrival, adaptive=True, sanitizer=None):
    """SSSP queries on a Domain partition (local, but skewed: the imbalance
    trigger fires), with every ILS call's ``balance_first`` recorded."""
    k = 4
    controller = BacklogSpy(
        k,
        ControllerConfig(
            mu=10.0,
            max_tracked_queries=32,
            qcut_compute_time=0.002,
            ils_rounds=60,
            qcut_cooldown=0.01,
            min_queries_for_qcut=4,
        ),
    )
    real_ils = controller_module.iterated_local_search

    def spy(*args, **kwargs):
        controller.records[-1]["balance_first"] = kwargs["balance_first"]
        return real_ils(*args, **kwargs)

    monkeypatch.setattr(controller_module, "iterated_local_search", spy)
    engine = QGraphEngine(
        rn.graph,
        make_cluster("M2", k),
        DomainPartitioner(road_network=rn, seed=0).partition(rn.graph, k),
        controller=controller,
        config=EngineConfig(adaptive=adaptive, sanitizer=sanitizer),
    )
    controller.engine = engine
    wl = WorkloadGenerator(rn, seed=5).generate(
        [
            PhaseSpec(
                num_queries=num_queries,
                kind="sssp",
                label="t",
                arrival=arrival,
                arrival_rate=500.0,
            )
        ]
    )
    wl.submit_all(engine)
    trace = engine.run()
    answers = {q.query_id: engine.query_result(q.query_id) for q, _t in wl.entries}
    planned = [r for r in controller.records if r["balance_first"] is not None]
    return trace, answers, planned


class TestSaturationGate:
    """A plan may trade query-cut for balance only when a full admission
    round was waiting at its snapshot."""

    def test_poisson_below_capacity_never_trades_locality(self, rn, monkeypatch):
        trace, answers, planned = domain_run(
            rn, monkeypatch, 128, "poisson", sanitizer=True
        )
        assert planned, "test needs at least one ILS run"
        for record in planned:
            assert record["backlog"] < 16
            assert record["balance_first"] is False
        # the cost-cutting plans still repartition, and answers (sanitized)
        # are exactly the static run's
        assert trace.repartitions
        _trace, static_answers, _planned = domain_run(
            rn, monkeypatch, 128, "poisson", adaptive=False
        )
        assert answers == static_answers

    def test_batch_run_plans_balance_first(self, rn, monkeypatch):
        _trace, _answers, planned = domain_run(rn, monkeypatch, 64, "batch")
        assert planned, "test needs at least one ILS run"
        for record in planned:
            assert record["backlog"] >= 16
            assert record["balance_first"] is True
