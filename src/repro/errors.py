"""Exception hierarchy for the Q-Graph reproduction library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch any library failure with a single ``except`` clause while still being
able to distinguish the individual failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class GraphError(ReproError):
    """Raised for malformed graph construction or out-of-range vertex ids."""


class PartitioningError(ReproError):
    """Raised when a partitioner receives inconsistent inputs
    (e.g. ``k`` larger than the vertex count, or an unbalanced request
    that cannot be satisfied)."""


class SimulationError(ReproError):
    """Raised for inconsistencies inside the discrete-event simulation,
    for example events scheduled in the past."""


class EngineError(ReproError):
    """Raised by the vertex-centric engine for protocol violations,
    e.g. sending a message to a non-existent vertex."""


class QueryError(EngineError):
    """Raised for invalid query definitions (empty initial vertex set,
    unknown start vertex, ...)."""


class ControllerError(ReproError):
    """Raised by the centralized controller for inconsistent statistics or
    move requests that reference unknown workers/queries."""


class WorkloadError(ReproError):
    """Raised by the workload generators for invalid parameters."""
