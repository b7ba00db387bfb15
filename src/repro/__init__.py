"""Q-Graph: preserving query locality in multi-query graph processing.

A from-scratch Python reproduction of Mayer et al., GRADES-NDA'18
(https://doi.org/10.1145/3210259.3210265): the Q-cut query-aware
partitioner, hybrid barrier synchronization, the adaptive MAPE controller,
and all substrates (graph storage, partitioning baselines, a discrete-event
cluster simulation, the multi-query vertex-centric engine, query programs,
and hotspot workload generation).

Quickstart::

    from repro.bench import Scenario, run_scenario

    result = run_scenario(Scenario(name="demo", main_queries=64))
    print(result.summary())

The subpackages load on first use (a PEP 562 module ``__getattr__``), so
``import repro.graph`` loads the graph layer alone.
"""

import importlib
from typing import Any

from repro.errors import ReproError

__version__ = "1.0.0"

#: the subpackages, imported by :func:`__getattr__` on first access
_SUBPACKAGES = (
    "bench",
    "core",
    "engine",
    "graph",
    "partitioning",
    "queries",
    "simulation",
    "workload",
)

__all__ = [
    *_SUBPACKAGES,
    "ReproError",
    "__version__",
]


def __getattr__(name: str) -> Any:
    """PEP 562: ``repro.<subpackage>`` imports that subpackage."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
