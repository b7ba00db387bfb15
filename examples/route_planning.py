"""Application 1 (§1): route planning on a road network.

Simulates a mapping service: localized shortest-path queries around urban
hotspots, plus point-of-interest lookups ("nearest gas station"), running
concurrently on a shared road graph.  Shows per-city latency statistics and
how the Q-cut controller consolidates each city's hot core onto one worker.

Run with:  python examples/route_planning.py
"""

from collections import defaultdict

import numpy as np

from repro.bench import Scenario, run_scenario, road_network_for
from repro.bench.reporting import format_table


def main():
    scenario = Scenario(
        name="route-planning",
        graph_preset="bw",
        infrastructure="M2",
        k=8,
        partitioner="hash",
        adaptive=True,
        workload="sssp",
        main_queries=256,
        seed=7,
    )
    print("running 256 hotspot SSSP queries with Q-cut adaptation ...")
    result = run_scenario(scenario)
    rn = road_network_for("bw", scenario.graph_scale, seed=0)

    # group finished queries by the city their scope mostly lives in
    by_city = defaultdict(list)
    for rec in result.trace.finished_queries():
        scope = result.engine.runtimes[rec.query_id].scope_vertices()
        cities = rn.city_of_vertex[scope]
        cities = cities[cities >= 0]
        if cities.size:
            by_city[int(np.bincount(cities).argmax())].append(rec)

    rows = []
    for city_id in sorted(by_city, key=lambda c: -len(by_city[c]))[:10]:
        group = by_city[city_id]
        core = rn.cities[city_id].vertex_ids
        owners = np.bincount(result.engine.assignment[core], minlength=8)
        rows.append(
            (
                f"city {city_id}",
                rn.cities[city_id].population,
                len(group),
                float(np.mean([g.latency for g in group])) * 1000,
                float(np.mean([g.locality for g in group])),
                f"w{int(np.argmax(owners))} ({owners.max() / core.size:.0%})",
            )
        )
    print(
        format_table(
            ["hotspot", "population", "queries", "mean latency ms", "locality", "home worker"],
            rows,
            title="Route planning per hotspot city (after Q-cut adaptation)",
        )
    )
    print(
        f"\noverall: mean latency {result.mean_latency * 1000:.2f} ms, "
        f"locality {result.mean_locality:.0%}, "
        f"{len(result.trace.repartitions)} repartitionings, "
        f"workload imbalance {result.mean_imbalance:.0%}"
    )


if __name__ == "__main__":
    main()
