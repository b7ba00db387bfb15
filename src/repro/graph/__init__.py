"""Graph substrate: CSR storage, builders, mutation, generators, metrics."""

from repro.graph.builder import GraphBuilder, csr_arrays_from_edges
from repro.graph.delta import (
    DeltaResult,
    GraphDelta,
    MutableDiGraph,
    NewVertexSpec,
    fresh_rebuild,
)
from repro.graph.digraph import CSRView, DiGraph
from repro.graph.generators import (
    NY_CUTS,
    NY_DISTRICT_NAMES,
    NY_QUERY_SCOPES,
    barabasi_albert,
    grid_graph,
    new_york_districts,
    rmat_graph,
    watts_strogatz,
)
from repro.graph.metrics import (
    edge_cut,
    partition_sizes,
    vertex_balance,
)
from repro.graph.road_network import (
    City,
    RoadNetwork,
    baden_wuerttemberg_like,
    generate_road_network,
    germany_like,
)

__all__ = [
    "DiGraph",
    "CSRView",
    "GraphBuilder",
    "csr_arrays_from_edges",
    "GraphDelta",
    "DeltaResult",
    "MutableDiGraph",
    "NewVertexSpec",
    "fresh_rebuild",
    "new_york_districts",
    "NY_CUTS",
    "NY_DISTRICT_NAMES",
    "NY_QUERY_SCOPES",
    "grid_graph",
    "watts_strogatz",
    "barabasi_albert",
    "edge_cut",
    "vertex_balance",
    "partition_sizes",
    "City",
    "RoadNetwork",
    "generate_road_network",
    "baden_wuerttemberg_like",
    "germany_like",
]
