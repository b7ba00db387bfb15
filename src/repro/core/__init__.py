"""Q-Graph core: the paper's primary contribution.

Q-cut query-aware partitioning (iterated local search over high-level query
scopes), the centralized MAPE controller, and the monitoring machinery.
"""

from repro.core.api import (
    BarrierReadyMessage,
    BarrierSynchMessage,
    ExecuteQueryMessage,
    MoveRequest,
    ScheduleQueryMessage,
    StatsMessage,
)
from repro.core.clustering import UnionFind, cluster_queries
from repro.core.controller import Controller, ControllerConfig, MovePlan
from repro.core.cost import (
    assignment_cost,
    assignment_cost_from_sizes,
    query_cut,
    query_cut_excess,
    query_cut_excess_from_sizes,
    query_cut_from_sizes,
)
from repro.core.ils import IlsResult, iterated_local_search
from repro.core.local_search import best_successor, local_search
from repro.core.monitoring import QueryMonitor, QueryStats
from repro.core.perturbation import WordStream, perturb
from repro.core.scopes import (
    QueryScopes,
    ScopeStore,
    pairwise_intersections,
    pairwise_intersections_arrays,
    scope_worker_counts,
)
from repro.core.state import Fragment, Move, QcutState

__all__ = [
    "Controller",
    "ControllerConfig",
    "MovePlan",
    "QcutState",
    "Fragment",
    "Move",
    "iterated_local_search",
    "IlsResult",
    "local_search",
    "best_successor",
    "perturb",
    "WordStream",
    "cluster_queries",
    "UnionFind",
    "QueryScopes",
    "ScopeStore",
    "pairwise_intersections",
    "pairwise_intersections_arrays",
    "scope_worker_counts",
    "QueryMonitor",
    "QueryStats",
    "query_cut",
    "query_cut_excess",
    "assignment_cost",
    "query_cut_from_sizes",
    "query_cut_excess_from_sizes",
    "assignment_cost_from_sizes",
    "StatsMessage",
    "BarrierSynchMessage",
    "ScheduleQueryMessage",
    "MoveRequest",
    "BarrierReadyMessage",
    "ExecuteQueryMessage",
]
