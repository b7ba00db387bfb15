"""Ablation benches for the controller parameters (see docs/experiments.md).

Not figures from the paper — these sweep the parameters §4.1 discusses
(δ, Φ, the Karger clustering granularity) to show each knob's effect:

* δ (balance cap): smaller δ forbids consolidating hot clusters (lower
  locality); larger δ allows more locality at the cost of imbalance;
* Φ (locality threshold): 0 disables adaptation entirely;
* clusters-per-worker: granularity of the Q-cut moves.
"""

import numpy as np

from repro.bench import Scenario, scale_queries
from repro.bench.reporting import format_table
from benchmarks.conftest import run_arms


def scenario_with(name, **controller_overrides):
    return Scenario(
        name=name,
        partitioner="hash",
        adaptive=True,
        graph_preset="bw",
        infrastructure="M2",
        k=8,
        main_queries=scale_queries(2048, minimum=384),
        seed=3,
        controller_overrides=tuple(controller_overrides.items()),
    )


def tail_locality(result):
    recs = sorted(result.trace.finished_queries(), key=lambda q: q.end_time)
    tail = recs[-len(recs) // 4 :]
    return float(np.mean([q.locality for q in tail]))


def test_ablation_delta(benchmark, record_info):
    arms = {
        f"delta={d}": scenario_with(f"delta={d}", delta=d)
        for d in (0.1, 0.25, 0.6)
    }
    results = benchmark.pedantic(run_arms, args=(arms,), rounds=1, iterations=1)
    rows = [
        (name, tail_locality(r), r.mean_imbalance, r.mean_latency)
        for name, r in results.items()
    ]
    print(
        "\n"
        + format_table(
            ["arm", "tail locality", "imbalance", "mean latency"],
            rows,
            title="Ablation: balance constraint delta (paper uses 0.25)",
        )
    )
    # a looser delta permits at least as much locality as a strict one
    assert tail_locality(results["delta=0.6"]) >= tail_locality(
        results["delta=0.1"]
    ) - 0.05
    record_info(
        loc_tight=tail_locality(results["delta=0.1"]),
        loc_paper=tail_locality(results["delta=0.25"]),
        loc_loose=tail_locality(results["delta=0.6"]),
    )


def test_ablation_phi(benchmark, record_info):
    arms = {
        "phi=0 (never)": scenario_with("phi0", phi=0.0),
        "phi=0.7 (paper)": scenario_with("phi07", phi=0.7),
    }
    results = benchmark.pedantic(run_arms, args=(arms,), rounds=1, iterations=1)
    rows = [
        (
            name,
            tail_locality(r),
            len(r.trace.repartitions),
            r.mean_latency,
        )
        for name, r in results.items()
    ]
    print(
        "\n"
        + format_table(
            ["arm", "tail locality", "repartitions", "mean latency"],
            rows,
            title="Ablation: locality threshold phi",
        )
    )
    assert len(results["phi=0 (never)"].trace.repartitions) == 0
    assert len(results["phi=0.7 (paper)"].trace.repartitions) >= 1
    assert tail_locality(results["phi=0.7 (paper)"]) > tail_locality(
        results["phi=0 (never)"]
    )
    record_info(
        reparts_paper=len(results["phi=0.7 (paper)"].trace.repartitions),
    )


def test_ablation_cluster_granularity(benchmark, record_info):
    arms = {
        f"cpw={c}": scenario_with(f"cpw={c}", clusters_per_worker=c)
        for c in (1, 4, 16)
    }
    results = benchmark.pedantic(run_arms, args=(arms,), rounds=1, iterations=1)
    rows = [
        (name, tail_locality(r), r.mean_latency, len(r.trace.repartitions))
        for name, r in results.items()
    ]
    print(
        "\n"
        + format_table(
            ["arm", "tail locality", "mean latency", "reparts"],
            rows,
            title="Ablation: Karger clusters per worker (paper uses 4, i.e. 4k)",
        )
    )
    # all granularities must still adapt successfully
    for r in results.values():
        assert len(r.trace.repartitions) >= 1
    record_info(
        loc_coarse=tail_locality(results["cpw=1"]),
        loc_paper=tail_locality(results["cpw=4"]),
        loc_fine=tail_locality(results["cpw=16"]),
    )
