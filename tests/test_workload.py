"""Tests for hotspot workload generation (§4.1 methodology)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.graph import generate_road_network
from repro.workload import (
    QUERY_KINDS,
    HotspotSampler,
    PhaseSpec,
    QueryTrace,
    WorkloadGenerator,
    namespaced_id_offset,
)


@pytest.fixture(scope="module")
def rn():
    return generate_road_network(
        num_cities=6, num_urban_vertices=1800, seed=17, region_size=90.0
    )


class TestHotspotSampler:
    def test_population_proportional_cities(self, rn):
        sampler = HotspotSampler(rn, seed=0)
        draws = np.array([sampler.sample_city() for _ in range(3000)])
        freq = np.bincount(draws, minlength=6) / 3000
        weights = rn.population_weights()
        # biggest city sampled most often, smallest least
        assert freq[0] > freq[-1]
        assert abs(freq[0] - weights[0]) < 0.06

    def test_vertices_near_center(self, rn):
        sampler = HotspotSampler(rn, seed=1)
        coords = rn.graph.coords
        for city in rn.cities[:2]:
            vs = [sampler.sample_vertex_in_city(city.city_id) for _ in range(50)]
            center = np.array(city.center)
            dists = [np.linalg.norm(coords[v] - center) for v in vs]
            radius = max(
                np.linalg.norm(coords[v] - center) for v in city.vertex_ids
            )
            # concentrated sampling: typical draw well inside the city radius
            assert np.median(dists) < 0.6 * radius

    def test_sampled_vertex_belongs_to_city(self, rn):
        sampler = HotspotSampler(rn, seed=2)
        for city in rn.cities:
            v = sampler.sample_vertex_in_city(city.city_id)
            assert rn.city_of_vertex[v] == city.city_id

    def test_intra_endpoints_same_city(self, rn):
        sampler = HotspotSampler(rn, seed=3)
        for _ in range(20):
            start, end = sampler.sample_sssp_endpoints(intra_probability=1.0)
            assert rn.city_of_vertex[start] == rn.city_of_vertex[end]
            assert start != end

    def test_inter_endpoints_different_city(self, rn):
        sampler = HotspotSampler(rn, seed=4)
        different = 0
        for _ in range(20):
            start, end = sampler.sample_sssp_endpoints(intra_probability=0.0)
            if rn.city_of_vertex[start] != rn.city_of_vertex[end]:
                different += 1
        assert different >= 18  # neighbouring city is distinct essentially always

    def test_neighboring_city_is_near(self, rn):
        sampler = HotspotSampler(rn, seed=5)
        centers = np.array([c.center for c in rn.cities])
        for city in range(6):
            other = sampler.neighboring_city(city)
            assert other != city
            d = np.linalg.norm(centers[other] - centers[city])
            all_d = np.linalg.norm(centers - centers[city], axis=1)
            all_d[city] = np.inf
            assert d <= np.sort(all_d)[2] + 1e-9  # among 3 nearest

    @pytest.mark.parametrize("num_cities", [2, 3])
    def test_neighboring_city_distinct_on_small_maps(self, num_cities):
        """Regression: with <= 3 cities the self city's inf-distance entry
        used to survive the top-3 slice, so the Fig. 5 'inter-urban'
        disturbance silently sampled the same city."""
        small = generate_road_network(
            num_cities=num_cities,
            num_urban_vertices=120,
            seed=3,
            region_size=30.0,
        )
        sampler = HotspotSampler(small, seed=1)
        for city in range(num_cities):
            for _ in range(25):
                assert sampler.neighboring_city(city) != city

    def test_neighboring_city_single_city_map(self):
        lone = generate_road_network(
            num_cities=1, num_urban_vertices=80, seed=3, region_size=20.0
        )
        sampler = HotspotSampler(lone, seed=1)
        assert sampler.neighboring_city(0) == 0  # nothing else to pick

    def test_validation(self, rn):
        with pytest.raises(WorkloadError):
            HotspotSampler(rn, concentration=0.0)
        with pytest.raises(WorkloadError):
            HotspotSampler(rn).sample_sssp_endpoints(intra_probability=2.0)

    def test_deterministic(self, rn):
        a = HotspotSampler(rn, seed=9)
        b = HotspotSampler(rn, seed=9)
        assert [a.sample_city() for _ in range(10)] == [
            b.sample_city() for _ in range(10)
        ]


class TestWorkloadGenerator:
    def test_phase_counts_and_labels(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.generate(
            [
                PhaseSpec(num_queries=10, kind="sssp", label="a"),
                PhaseSpec(num_queries=5, kind="poi", label="b"),
            ]
        )
        assert trace.num_queries == 15
        labels = [q.phase for q in trace.queries()]
        assert labels.count("a") == 10
        assert labels.count("b") == 5

    def test_query_ids_unique(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.generate([PhaseSpec(num_queries=20)])
        ids = [q.query_id for q in trace.queries()]
        assert len(set(ids)) == 20

    def test_paper_sssp_workload_shape(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.paper_sssp_workload(main_queries=32, disturbance_queries=8)
        phases = [q.phase for q in trace.queries()]
        assert phases[:32] == ["intra"] * 32
        assert phases[32:] == ["inter"] * 8

    def test_poi_workload_kind(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.paper_poi_workload(num_queries=6)
        assert all(q.kind == "poi" for q in trace.queries())

    def test_invalid_phase(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=-1)
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, kind="bogus")

    def test_deterministic(self, rn):
        a = WorkloadGenerator(rn, seed=4).generate([PhaseSpec(num_queries=12)])
        b = WorkloadGenerator(rn, seed=4).generate([PhaseSpec(num_queries=12)])
        for (qa, _), (qb, _) in zip(a.entries, b.entries):
            assert qa.initial_vertices == qb.initial_vertices
            assert qa.program.target == qb.program.target


class TestMixedKindsAndArrivals:
    def test_all_seven_kinds_generate(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        phases = [
            PhaseSpec(num_queries=3, kind=k, label=k, depth=2)
            for k in sorted(QUERY_KINDS)
        ]
        trace = gen.generate(phases)
        assert trace.num_queries == 21
        kinds = {q.kind for q in trace.queries()}
        assert kinds == set(QUERY_KINDS.values())

    def test_kind_aliases_accepted(self):
        spec = PhaseSpec(num_queries=1, kind="reach")
        assert spec.kind == "reachability"
        spec = PhaseSpec(num_queries=1, kind="ppr")
        assert spec.kind == "pagerank_local"

    def test_mixed_phase_covers_mix(self, rn):
        gen = WorkloadGenerator(rn, seed=5)
        trace = gen.generate(
            [
                PhaseSpec(
                    num_queries=60,
                    kind="mixed",
                    mix=(("sssp", 1.0), ("khop", 1.0), ("poi", 1.0)),
                    depth=2,
                )
            ]
        )
        kinds = [q.kind for q in trace.queries()]
        assert set(kinds) == {"sssp", "khop", "poi"}
        # roughly even blend
        assert min(kinds.count(k) for k in set(kinds)) >= 10

    def test_mixed_kind_workload_canned(self, rn):
        gen = WorkloadGenerator(rn, seed=2)
        trace = gen.mixed_kind_workload(num_queries=70)
        assert trace.num_queries == 70
        assert {q.kind for q in trace.queries()} == set(QUERY_KINDS.values())

    def test_mixed_requires_mix(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, kind="mixed")
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, kind="mixed", mix=(("sssp", -1.0),))

    def test_batch_arrivals_all_at_offset(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.generate([PhaseSpec(num_queries=5, arrival_offset=3.0)])
        assert all(t == 3.0 for _q, t in trace.entries)

    def test_poisson_arrivals_increase_at_rate(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.generate(
            [
                PhaseSpec(
                    num_queries=400,
                    arrival="poisson",
                    arrival_rate=100.0,
                    arrival_offset=1.0,
                )
            ]
        )
        times = np.array([t for _q, t in trace.entries])
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 1.0
        # mean inter-arrival ~ 1/rate
        assert abs(np.diff(times).mean() - 0.01) < 0.002

    def test_poi_workload_honours_arrival_process(self, rn):
        gen = WorkloadGenerator(rn, seed=0)
        trace = gen.paper_poi_workload(
            num_queries=20, arrival="poisson", arrival_rate=50.0
        )
        times = np.array([t for _q, t in trace.entries])
        assert np.all(np.diff(times) >= 0)
        assert times[-1] > 0.0  # not a t=0 batch

    def test_invalid_arrival_specs(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, arrival="bogus")
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, arrival="poisson")
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, arrival="burst")  # retired process

    def test_arrival_draws_do_not_perturb_endpoints(self, rn):
        """Switching the arrival process must not change which queries are
        generated (endpoint sampling uses a separate RNG stream)."""
        a = WorkloadGenerator(rn, seed=6).generate([PhaseSpec(num_queries=10)])
        b = WorkloadGenerator(rn, seed=6).generate(
            [PhaseSpec(num_queries=10, arrival="poisson", arrival_rate=10.0)]
        )
        for (qa, _), (qb, _) in zip(a.entries, b.entries):
            assert qa.initial_vertices == qb.initial_vertices


class TestIdNamespaces:
    def test_id_offset_shifts_ids(self, rn):
        gen = WorkloadGenerator(rn, seed=0, id_offset=500)
        trace = gen.generate([PhaseSpec(num_queries=3)])
        assert [q.query_id for q in trace.queries()] == [500, 501, 502]

    def test_namespaced_offsets_disjoint(self, rn):
        a = WorkloadGenerator(rn, seed=0, id_offset=namespaced_id_offset(0))
        b = WorkloadGenerator(rn, seed=1, id_offset=namespaced_id_offset(1))
        ta = a.generate([PhaseSpec(num_queries=10)])
        tb = b.generate([PhaseSpec(num_queries=10)])
        ids_a = {q.query_id for q in ta.queries()}
        ids_b = {q.query_id for q in tb.queries()}
        assert not ids_a & ids_b

    def test_two_generators_compose_in_one_engine(self, rn):
        """Regression: two generators both numbering from 0 used to raise a
        duplicate-id EngineError when their traces fed one engine."""
        from repro.core import Controller
        from repro.engine import EngineConfig, QGraphEngine
        from repro.partitioning import HashPartitioner
        from repro.simulation.cluster import make_cluster

        graph = rn.graph
        k = 2
        assignment = HashPartitioner(seed=0).partition(graph, k)
        engine = QGraphEngine(
            graph,
            make_cluster("M2", k),
            assignment,
            controller=Controller(k),
            config=EngineConfig(adaptive=False),
        )
        a = WorkloadGenerator(rn, seed=0, id_offset=namespaced_id_offset(0))
        b = WorkloadGenerator(rn, seed=1, id_offset=namespaced_id_offset(1))
        merged = a.generate([PhaseSpec(num_queries=6)]).merge(
            b.generate([PhaseSpec(num_queries=6)])
        )
        merged.submit_all(engine)  # must not raise duplicate-id EngineError
        trace = engine.run()
        assert len(trace.finished_queries()) == 12

    def test_negative_offset_rejected(self, rn):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(rn, id_offset=-1)
        with pytest.raises(WorkloadError):
            namespaced_id_offset(-2)


class TestChurnProcess:
    def test_zero_churn_produces_no_events(self, rn):
        trace = WorkloadGenerator(rn, seed=6).generate([PhaseSpec(num_queries=5)])
        assert trace.churn == []

    def test_churn_events_within_span(self, rn):
        trace = WorkloadGenerator(rn, seed=6).generate(
            [
                PhaseSpec(
                    num_queries=5,
                    arrival_offset=1.0,
                    churn_rate=50.0,
                    churn_span=0.5,
                )
            ]
        )
        assert trace.churn, "expected churn events at rate 50/s over 0.5s"
        times = [t for t, _d in trace.churn]
        assert all(1.0 < t <= 1.5 for t in times)
        assert times == sorted(times)
        assert all(delta.num_mutations > 0 for _t, delta in trace.churn)

    def test_churn_does_not_perturb_endpoints_or_arrivals(self, rn):
        """Enabling churn must change neither the query endpoints nor the
        arrival times (the churn process has its own RNG stream)."""
        quiet = WorkloadGenerator(rn, seed=6).generate(
            [PhaseSpec(num_queries=10, arrival="poisson", arrival_rate=10.0)]
        )
        churny = WorkloadGenerator(rn, seed=6).generate(
            [
                PhaseSpec(
                    num_queries=10,
                    arrival="poisson",
                    arrival_rate=10.0,
                    churn_rate=20.0,
                )
            ]
        )
        assert [
            (q.initial_vertices, t) for q, t in quiet.entries
        ] == [(q.initial_vertices, t) for q, t in churny.entries]
        assert churny.churn

    def test_churn_deterministic(self, rn):
        spec = PhaseSpec(num_queries=4, churn_rate=30.0, churn_span=0.4)
        a = WorkloadGenerator(rn, seed=6).generate([spec])
        b = WorkloadGenerator(rn, seed=6).generate([spec])
        assert [t for t, _ in a.churn] == [t for t, _ in b.churn]
        for (_, da), (_, db) in zip(a.churn, b.churn):
            assert da.insert_edges == db.insert_edges
            assert da.delete_edges == db.delete_edges
            assert da.update_weights == db.update_weights
            assert da.remove_vertices == db.remove_vertices

    def test_merge_combines_churn_sorted(self, rn):
        a = WorkloadGenerator(rn, seed=0, id_offset=namespaced_id_offset(0)).generate(
            [PhaseSpec(num_queries=2, churn_rate=30.0, churn_span=0.3)]
        )
        b = WorkloadGenerator(rn, seed=1, id_offset=namespaced_id_offset(1)).generate(
            [PhaseSpec(num_queries=2, churn_rate=30.0, churn_span=0.3)]
        )
        merged = a.merge(b)
        times = [t for t, _ in merged.churn]
        assert times == sorted(times)
        assert len(merged.churn) == len(a.churn) + len(b.churn)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, churn_rate=-1.0)
        with pytest.raises(WorkloadError):
            PhaseSpec(num_queries=1, churn_rate=1.0)  # batch needs a span
        with pytest.raises(WorkloadError):
            PhaseSpec(
                num_queries=1, churn_rate=1.0, churn_span=1.0, churn_batch=0
            )
        # poisson arrivals derive the span from the arrivals themselves
        PhaseSpec(
            num_queries=1, churn_rate=1.0, arrival="poisson", arrival_rate=5.0
        )
