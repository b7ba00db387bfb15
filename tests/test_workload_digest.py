"""Pinned digests of generated query workloads.

Every experiment draws its queries through :class:`HotspotSampler` and the
churn stream through :class:`WorkloadGenerator`, so a change to how those
draws are made (a cached city table, a spatial index for the nearest
junction) must reproduce the very same workload: the same query ids,
kinds, program parameters, arrival times and churn deltas, draw for draw.
The digests below were recorded with the sampler that called
``Generator.choice`` for every city and scanned a whole city for every
junction.  Scale 8 has cities of several thousand junctions, where a
nearest-junction index has something to prune.
"""

import hashlib

import pytest

from repro.graph.road_network import baden_wuerttemberg_like
from repro.workload import WorkloadGenerator


def workload_digest(trace) -> str:
    h = hashlib.sha256()
    for query, arrival in trace.entries:
        params = sorted(vars(query.program).items())
        h.update(
            repr(
                (
                    query.query_id,
                    query.program.kind,
                    params,
                    query.initial_vertices,
                    query.phase,
                    arrival,
                )
            ).encode()
        )
    for time, delta in trace.churn:
        h.update(repr((time, delta)).encode())
    return h.hexdigest()


def _mixed(rn, seed):
    """All seven programs, Poisson arrivals and churn on every op kind."""
    return WorkloadGenerator(rn, seed=seed).mixed_kind_workload(
        num_queries=256,
        arrival="poisson",
        arrival_rate=1500.0,
        churn_rate=400.0,
        churn_span=0.2,
    )


def _sssp(rn, seed):
    """Intra-urban endpoints, then inter-urban ones toward a neighbour city."""
    return WorkloadGenerator(rn, seed=seed, id_offset=1_000_000).paper_sssp_workload(
        main_queries=64, disturbance_queries=32
    )


PINNED = {
    (1.0, 8, "mixed"): (
        "4733cb29a17383727177303cc8dc4f7b4165a4eb38c5fe7495625e4a8cfc0efc"
    ),
    (1.0, 8, "sssp"): (
        "df4139f5ea1cb9422037d4c715b7c83f033cc7842acff213c0f58f99f7c71bf7"
    ),
    (1.0, 11, "mixed"): (
        "13112a5aaacfd0fb6ff9a3f0de19e229bc092cd6254a70b3f96ad6994c2db756"
    ),
    (1.0, 11, "sssp"): (
        "c2786aad3f1db72265d6b283a6217fd0276a0614581813348b4f46864116b495"
    ),
    (8.0, 8, "mixed"): (
        "d7419ee26695553170f5b85ef2e879a0332531347853d244cb6558a8c35516c5"
    ),
    (8.0, 8, "sssp"): (
        "9886d8977a2fb9cf432b9888c518a05caeadf8cf531c47f8d3cd2a444fd9d16f"
    ),
    (8.0, 11, "mixed"): (
        "8b7c7fd3c95632166143613de9fc1b1a9593382e8b4b0d9395474b8c36ddc699"
    ),
    (8.0, 11, "sssp"): (
        "37db3089a4c24cf7c07ee6b6d3ad1ff21802c051dcd5c5f75e0b13cb5f1771e7"
    ),
}

_BUILDERS = {"mixed": _mixed, "sssp": _sssp}


@pytest.fixture(scope="module", params=[1.0, 8.0], ids=["scale1", "scale8"])
def network(request):
    return request.param, baden_wuerttemberg_like(scale=request.param, seed=7)


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
@pytest.mark.parametrize("seed", [8, 11])
def test_generated_workload_is_draw_for_draw_identical(network, seed, kind):
    scale, rn = network
    trace = _BUILDERS[kind](rn, seed)
    assert workload_digest(trace) == PINNED[scale, seed, kind]


if __name__ == "__main__":  # pragma: no cover - prints the digests to pin
    for scale in (1.0, 8.0):
        rn = baden_wuerttemberg_like(scale=scale, seed=7)
        for seed in (8, 11):
            for kind, build in sorted(_BUILDERS.items()):
                print(f"    ({scale}, {seed}, {kind!r}): {workload_digest(build(rn, seed))!r},")
