"""The sampler's tables return what the per-draw code they replace returned.

``HotspotSampler`` builds a city table once (the cumulative table
``Generator.choice`` builds on every call), a grid over each city's
junctions (for the junction nearest to a target, as a scan of the whole
city finds it) and each city's nearest centres.  Each must return the very
same value from the very same stream position, draw for draw, or every
generated workload and every number measured on one moves.  The
``Reference`` sampler below is the per-draw code, kept as the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generate_road_network
from repro.graph.road_network import RoadNetwork
from repro.workload import HotspotSampler, WorkloadGenerator
from repro.workload import hotspots
from repro.workload.hotspots import JunctionGrid, choice_table, draw_from_table

#: the first draws of ``default_rng(seed).choice(4, p=ZERO_WEIGHT)``; a
#: change to numpy's ``choice`` or to PCG64 fails here by name
ZERO_WEIGHT = np.array([0.5, 0.0, 0.3, 0.2])
FIRST_CITIES = {
    0: [2, 0, 0, 0, 3, 3, 2, 2, 2, 3, 3, 0],
    7: [2, 3, 2, 0, 0, 3, 0, 3, 2, 0, 0, 0],
}


class Reference:
    """The sampler's draws as they were made before it kept tables."""

    def __init__(self, rn: RoadNetwork, seed: int) -> None:
        self.rn = rn
        self.rng = np.random.default_rng(seed)
        self.weights = rn.population_weights()
        self.centers = np.array([c.center for c in rn.cities])

    def city(self) -> int:
        return int(self.rng.choice(len(self.weights), p=self.weights))

    def vertex(self, city_id: int) -> int:
        ids = self.rn.city_vertices(city_id)
        pts = self.rn.graph.coords[ids]
        center = self.rn.cities[city_id].center
        radius = max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]).max(), 1e-9)
        sigma = min(0.18 * float(radius), 1.0)  # the sampler's default spread
        target = self.centers[city_id] + self.rng.normal(0.0, sigma, size=2)
        return int(ids[int(np.argmin(np.hypot(pts[:, 0] - target[0], pts[:, 1] - target[1])))])

    def neighbor(self, city_id: int) -> int:
        if len(self.weights) == 1:
            return city_id
        d = np.linalg.norm(self.centers - self.centers[city_id], axis=1)
        d[city_id] = np.inf
        order = np.argsort(d)
        order = order[np.isfinite(d[order])]
        top = order[: min(3, order.size)]
        return int(top[int(self.rng.integers(0, top.size))])


def _zero_population(rn: RoadNetwork, city_id: int) -> RoadNetwork:
    cities = list(rn.cities)
    cities[city_id] = replace(cities[city_id], population=0)
    return RoadNetwork(rn.graph, cities, rn.city_of_vertex)


MAPS = {
    "one_city": lambda: generate_road_network(
        num_cities=1, num_urban_vertices=80, seed=3, region_size=20.0
    ),
    "three_cities": lambda: generate_road_network(
        num_cities=3, num_urban_vertices=300, seed=3, region_size=30.0
    ),
    "zero_weight_city": lambda: _zero_population(
        generate_road_network(
            num_cities=4, num_urban_vertices=600, seed=5, region_size=40.0
        ),
        1,
    ),
    "six_cities": lambda: generate_road_network(
        num_cities=6, num_urban_vertices=1800, seed=17, region_size=90.0
    ),
}


@pytest.fixture(scope="module", params=sorted(MAPS))
def road_map(request):
    return MAPS[request.param]()


class TestCityTable:
    @pytest.mark.parametrize("seed", sorted(FIRST_CITIES))
    def test_first_draws_are_pinned(self, seed):
        cdf = choice_table(ZERO_WEIGHT)
        rng = np.random.default_rng(seed)
        assert [draw_from_table(cdf, rng) for _ in range(12)] == FIRST_CITIES[seed]

    @pytest.mark.parametrize(
        "p",
        [np.array([1.0]), ZERO_WEIGHT, np.array([0.0, 0.0, 1.0]), np.full(64, 1 / 64)],
        ids=["one", "zero_weight", "zeros_first", "uniform64"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_equals_generator_choice_interleaved(self, p, seed):
        """Draw for draw, with normal and integer draws between the city
        draws: the table must take exactly the one double ``choice`` takes."""
        cdf = choice_table(p)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(600):
            assert draw_from_table(cdf, ours) == int(numpys.choice(p.size, p=p))
            if i % 3 == 0:
                assert ours.normal(0.0, 2.0, size=2).tolist() == numpys.normal(
                    0.0, 2.0, size=2
                ).tolist()
            if i % 5 == 0:
                assert int(ours.integers(0, 1 + i)) == int(numpys.integers(0, 1 + i))
        assert ours.random() == numpys.random()

    def test_a_zero_weight_city_is_never_drawn(self):
        cdf = choice_table(ZERO_WEIGHT)
        rng = np.random.default_rng(3)
        assert 1 not in {draw_from_table(cdf, rng) for _ in range(2000)}

    @pytest.mark.parametrize("u, city", [(0.0, 0), (0.5, 2), (0.8, 3), (0.25, 0)])
    def test_a_draw_on_a_table_entry_goes_to_the_next_city(self, u, city):
        """``choice`` searches its table from the right: a double equal to an
        entry belongs to the next city with weight, never to a zero-weight
        one.  No seeded stream hits an entry, so a stub stream does."""

        class Fixed:
            def random(self):
                return u

        assert draw_from_table(choice_table(ZERO_WEIGHT), Fixed()) == city


class TestSamplerAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_draw_for_draw(self, road_map, seed):
        """Cities, junctions and neighbouring cities interleaved on the one
        stream, as an SSSP workload with intra- and inter-urban pairs draws
        them."""
        sampler = HotspotSampler(road_map, seed=seed)
        ref = Reference(road_map, seed)
        for _ in range(300):
            city = sampler.sample_city()
            assert city == ref.city()
            assert sampler.sample_vertex_in_city(city) == ref.vertex(city)
            other = sampler.neighboring_city(city)
            assert other == ref.neighbor(city)
            assert sampler.sample_vertex_in_city(other) == ref.vertex(other)
        assert sampler.rng.random() == ref.rng.random()

    def test_churn_cities_follow_the_table(self, road_map):
        """The churn stream draws its cities from the sampler's table, as
        ``choice`` over the population shares would."""
        generator = WorkloadGenerator(road_map, seed=4)
        rng = np.random.default_rng([4, 0xC4C4])
        weights = road_map.population_weights()
        for _ in range(200):
            city = int(rng.choice(weights.size, p=weights))
            ids = road_map.city_vertices(city)
            assert generator._churn_city_vertex() == int(ids[int(rng.integers(0, ids.size))])


def _full_scan(points: np.ndarray, tx: float, ty: float) -> int:
    return int(np.argmin(np.hypot(points[:, 0] - tx, points[:, 1] - ty)))


#: lattice coordinates make duplicate points and equidistant ties common
lattice = st.integers(-6, 6).map(float)
coordinate = st.one_of(lattice, st.floats(-50.0, 50.0, allow_nan=False))


@st.composite
def point_sets(draw):
    shape = draw(st.sampled_from(["scatter", "single", "row", "column", "diagonal"]))
    if shape == "single":
        pts = [(draw(coordinate), draw(coordinate))]
    elif shape == "scatter":
        pts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60))
    else:
        along = draw(st.lists(coordinate, min_size=1, max_size=40))
        fixed = draw(coordinate)
        if shape == "row":
            pts = [(a, fixed) for a in along]
        elif shape == "column":
            pts = [(fixed, a) for a in along]
        else:
            pts = [(a, 0.5 * a + fixed) for a in along]
    # repeat some points so duplicates sit in one cell
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))
    pts = pts + [pts[i] for i in repeats]
    return np.array(pts, dtype=np.float64)


target = st.one_of(
    lattice,
    lattice.map(lambda v: v + 0.5),  # midway between lattice points: ties
    st.floats(-60.0, 60.0, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),  # outside the bounding box, far
)


@given(point_sets(), st.lists(st.tuples(target, target), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_grid_equals_full_scan(points, targets):
    """The grid's index is the full scan's ``argmin``, the first index on a
    tie, for every target; later targets reuse the blocks earlier ones
    gathered."""
    grid = JunctionGrid(points)
    for tx, ty in targets:
        assert grid.nearest(tx, ty) == _full_scan(points, tx, ty)


class _HypotSizes:
    """Stands in for numpy in the sampler's module, recording the size of
    every ``np.hypot`` call."""

    def __init__(self) -> None:
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def hypot(self, a, b):
        self.sizes.append(np.size(a))
        return np.hypot(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_grid_equals_full_scan_on_a_dense_city(monkeypatch, seed):
    """Thousands of points, targets in their dense core: the case the grid
    is there for.  Every answer is the full scan's, and none needed one."""
    counting = _HypotSizes()
    monkeypatch.setattr(hotspots, "np", counting)
    rng = np.random.default_rng(seed)
    points = np.round(rng.normal(0.0, 3.0, size=(3000, 2)), 2)  # rounding makes ties
    grid = JunctionGrid(points)
    for tx, ty in rng.normal(0.0, 1.0, size=(200, 2)).tolist():
        assert grid.nearest(tx, ty) == _full_scan(points, tx, ty)
    assert len(counting.sizes) == 200
    assert max(counting.sizes) < points.shape[0] // 10


def test_grid_prefers_the_first_of_equidistant_points():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    grid = JunctionGrid(points)
    assert grid.nearest(0.0, 0.0) == 0
    assert grid.nearest(0.0, 5.0) == 1  # duplicate at index 4 loses the tie


def test_targets_far_outside_scan_the_city():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    grid = JunctionGrid(points)
    assert grid.nearest(1e9, -1e9) == 2
    assert grid.nearest(-1e9, 0.0) == 0
