"""Static graph partitioning baselines (the query-agnostic state of the art)."""

from repro.partitioning.base import Partitioner, validate_partitioning
from repro.partitioning.bfs_regions import BfsRegionPartitioner
from repro.partitioning.domain_partitioner import (
    DomainPartitioner,
    group_cities_geographically,
)
from repro.partitioning.hash_partitioner import HashPartitioner
from repro.partitioning.ldg import LdgPartitioner, ldg_place_vertices

__all__ = [
    "Partitioner",
    "validate_partitioning",
    "HashPartitioner",
    "DomainPartitioner",
    "group_cities_geographically",
    "LdgPartitioner",
    "ldg_place_vertices",
    "BfsRegionPartitioner",
]
