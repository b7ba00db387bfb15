"""Multi-query vertex-centric engine over the simulated cluster."""

from repro.engine.barriers import SyncMode
from repro.engine.engine import EngineConfig, QGraphEngine
from repro.engine.kernels import ArrayMailbox, QueryKernel
from repro.engine.query import Query, QueryRuntime
from repro.engine.scheduler import (
    FifoScheduler,
    LocalityScheduler,
    Scheduler,
    make_scheduler,
)
from repro.engine.vertex_program import ComputeContext, VertexProgram
from repro.engine.worker import IterationResult, SimWorker

__all__ = [
    "SyncMode",
    "EngineConfig",
    "QGraphEngine",
    "Scheduler",
    "FifoScheduler",
    "LocalityScheduler",
    "make_scheduler",
    "Query",
    "QueryRuntime",
    "VertexProgram",
    "ComputeContext",
    "QueryKernel",
    "ArrayMailbox",
    "SimWorker",
    "IterationResult",
]
