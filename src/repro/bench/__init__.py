"""Benchmark harness: scenario runner and ASCII table rendering."""

from repro.bench.harness import (
    Scenario,
    ScenarioResult,
    default_controller_config,
    road_network_for,
    run_scenario,
)
from repro.bench.reporting import format_table

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "road_network_for",
    "default_controller_config",
    "format_table",
]
