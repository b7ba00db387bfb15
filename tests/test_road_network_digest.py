"""Pinned digests of the generated road networks.

The generator is the first thing every experiment runs, so any change to it
(batching its RNG draws, vectorising its loops) must reproduce the very same
graph: same CSR arrays, coordinates, tags and city map, bit for bit.  The
digests below were recorded from the per-vertex/per-edge Python-loop
generator before it was batched.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import baden_wuerttemberg_like, generate_road_network, germany_like


def network_digest(rn) -> str:
    csr = rn.graph.csr()
    h = hashlib.sha256()
    for arr, dtype in (
        (csr.indptr, np.int64),
        (csr.indices, np.int64),
        (csr.weights, np.float64),
        (rn.graph.coords, np.float64),
        (rn.graph.tags, np.bool_),
        (rn.city_of_vertex, np.int64),
    ):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    for city in rn.cities:
        h.update(repr((city.city_id, city.center, city.population)).encode())
        h.update(np.ascontiguousarray(city.vertex_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


CASES = {
    "bw_1.0_seed7": (
        lambda: baden_wuerttemberg_like(1.0, seed=7),
        "0262cf03763e77fb39ba983832ed9d3b4375570c152854d4ec93cc61d0b93ab4",
    ),
    "gy_0.25": (
        lambda: germany_like(0.25),
        "1f486adab1fa389e53d09b06ae77443f81c34bc33a3ba3f0a9760880775866ee",
    ),
    "toy_3_cities": (
        lambda: generate_road_network(
            num_cities=3, num_urban_vertices=60, seed=3, region_size=30.0
        ),
        "8e7bf470181f017b8c3c31c0303c89241396c4630753591be5e797ee743981b0",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_network_is_bit_identical(name):
    build, expected = CASES[name]
    assert network_digest(build()) == expected


if __name__ == "__main__":  # pragma: no cover - prints the digests to pin
    for case, (make, _expected) in sorted(CASES.items()):
        print(case, network_digest(make()))
