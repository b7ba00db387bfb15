"""End-to-end integration tests exercising the full harness pipeline."""

import numpy as np
import pytest

from repro.bench import Scenario, run_scenario
from repro.core import MoveRequest
from repro.engine import SyncMode


@pytest.fixture(scope="module")
def scenario_pair():
    """One static-hash and one adaptive run on a small BW-like network."""
    base = dict(
        graph_preset="bw",
        graph_scale=0.4,
        main_queries=64,
        k=4,
        seed=11,
    )
    static = run_scenario(
        Scenario(name="static", partitioner="hash", adaptive=False, **base)
    )
    adaptive = run_scenario(
        Scenario(name="adaptive", partitioner="hash", adaptive=True, **base)
    )
    return static, adaptive


class TestHarness:
    def test_all_queries_finish(self, scenario_pair):
        static, adaptive = scenario_pair
        assert len(static.trace.finished_queries()) == 64
        assert len(adaptive.trace.finished_queries()) == 64

    def test_adaptive_repartitions(self, scenario_pair):
        _static, adaptive = scenario_pair
        assert len(adaptive.trace.repartitions) >= 1

    def test_adaptive_improves_locality(self, scenario_pair):
        static, adaptive = scenario_pair
        assert adaptive.mean_locality > static.mean_locality

    def test_summary_fields(self, scenario_pair):
        static, _ = scenario_pair
        s = static.summary()
        for key in (
            "total_latency",
            "mean_latency",
            "makespan",
            "locality",
            "imbalance",
            "repartitions",
            "queries",
        ):
            assert key in s
        assert s["queries"] == 64

    def test_deterministic_reruns(self):
        base = Scenario(
            name="det",
            partitioner="hash",
            adaptive=True,
            graph_preset="bw",
            graph_scale=0.4,
            main_queries=32,
            k=4,
            seed=5,
        )
        a = run_scenario(base)
        b = run_scenario(base)
        assert a.total_latency == pytest.approx(b.total_latency)
        assert a.mean_locality == pytest.approx(b.mean_locality)
        assert len(a.trace.repartitions) == len(b.trace.repartitions)

    def test_sync_mode_scenarios(self):
        for mode in (SyncMode.SHARED_BSP, SyncMode.GLOBAL_PER_QUERY):
            r = run_scenario(
                Scenario(
                    name=f"mode-{mode.value}",
                    partitioner="hash",
                    sync_mode=mode,
                    adaptive=False,
                    graph_preset="bw",
                    graph_scale=0.4,
                    main_queries=16,
                    k=4,
                    seed=2,
                )
            )
            assert len(r.trace.finished_queries()) == 16

    def test_poi_workload_scenario(self):
        r = run_scenario(
            Scenario(
                name="poi",
                partitioner="domain",
                workload="poi",
                adaptive=False,
                graph_preset="bw",
                graph_scale=0.4,
                main_queries=24,
                k=4,
                seed=3,
            )
        )
        assert len(r.trace.finished_queries()) == 24

    def test_mixed_workload_scenario_all_kinds_finish(self):
        """All seven query programs blended in one adaptive run, admitted
        in co-located cohorts (the locality policy ``open_mixed`` runs),
        arriving as a Poisson process."""
        r = run_scenario(
            Scenario(
                name="mixed",
                partitioner="domain",
                workload="mixed",
                adaptive=True,
                graph_preset="bw",
                graph_scale=0.4,
                main_queries=56,
                max_parallel=8,
                scheduler="locality",
                arrival="poisson",
                arrival_rate=4000.0,
                k=4,
                seed=3,
            )
        )
        finished = r.trace.finished_queries()
        assert len(finished) == 56
        assert {q.kind for q in finished} == {
            "sssp", "poi", "bfs", "khop", "reach", "ppr", "wcc-local",
        }


class TestApiMessages:
    """The ``move`` message normalises its vertex payload."""

    def test_move_request(self):
        m = MoveRequest(src=0, dst=1, vertices=[3, 4, 5])
        assert m.size == 3
        assert m.vertices.dtype == np.int64
