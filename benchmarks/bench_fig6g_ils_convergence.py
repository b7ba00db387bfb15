"""Figure 6g — ILS cost convergence with perturbation markers.

Paper: monitoring the first Q-cut execution on the Hash-partitioned BW graph,
costs drop by more than 75% within the 2-second budget; perturbations
visibly escape local minima.
"""

import numpy as np

from repro.bench import Scenario, run_scenario, scale_queries
from repro.bench.reporting import format_table
from repro.core import iterated_local_search


def first_snapshot_state():
    """Reproduce the controller's first Q-cut snapshot on Hash/BW."""
    scenario = Scenario(
        name="snapshot",
        partitioner="hash",
        adaptive=False,
        graph_preset="bw",
        infrastructure="M2",
        k=8,
        main_queries=scale_queries(128, minimum=64),
        seed=3,
    )
    result = run_scenario(scenario)
    controller = result.controller
    state, _fragments, _held = controller._build_snapshot(result.engine.assignment)
    return state


def run_ils():
    state = first_snapshot_state()
    return state, iterated_local_search(state, max_rounds=60, seed=1)


def test_fig6g_ils_convergence(benchmark, record_info):
    state, res = benchmark.pedantic(run_ils, rounds=1, iterations=1)
    rows = [
        (
            round_idx,
            cost,
            "perturb" if round_idx in res.perturbation_rounds else "",
        )
        for round_idx, cost in res.cost_trace[:: max(len(res.cost_trace) // 15, 1)]
    ]
    print(
        "\n"
        + format_table(
            ["ILS round", "incumbent cost", ""],
            rows,
            title="Figure 6g: ILS cost trace (first Q-cut on Hash/BW)",
        )
    )
    print(
        f"initial cost {res.initial_cost:.0f} -> best {res.best_cost:.0f} "
        f"({res.improvement:.0%} reduction; paper: >75%); "
        f"{len(res.perturbation_rounds)} perturbations"
    )
    assert res.improvement > 0.75
    assert res.best_state.is_balanced() or state.max_imbalance() >= res.best_state.max_imbalance()
    record_info(
        improvement=res.improvement,
        initial_cost=res.initial_cost,
        best_cost=res.best_cost,
        rounds=res.rounds,
    )
