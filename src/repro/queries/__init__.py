"""Query programs: the paper's SSSP/POI plus CGA-style extensions."""

from repro.queries.bfs import BfsProgram
from repro.queries.khop import KHopProgram
from repro.queries.pagerank_local import LocalPageRankProgram
from repro.queries.poi import PoiProgram
from repro.queries.reachability import ReachabilityProgram
from repro.queries.sssp import SsspProgram
from repro.queries.wcc_local import LocalWccProgram

__all__ = [
    "SsspProgram",
    "PoiProgram",
    "BfsProgram",
    "LocalPageRankProgram",
    "KHopProgram",
    "ReachabilityProgram",
    "LocalWccProgram",
]
