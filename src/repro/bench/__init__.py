"""Benchmark harness: scenario runner and ASCII reporting."""

from repro.bench.harness import (
    Scenario,
    ScenarioResult,
    default_controller_config,
    get_scale,
    graph_scale_for,
    road_network_for,
    run_scenario,
    scale_queries,
)
from repro.bench.reporting import (
    format_series,
    format_table,
    print_series,
    print_table,
    ratio,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "get_scale",
    "scale_queries",
    "graph_scale_for",
    "road_network_for",
    "default_controller_config",
    "format_table",
    "format_series",
    "print_table",
    "print_series",
    "ratio",
]
