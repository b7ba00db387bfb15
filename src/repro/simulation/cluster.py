"""Computing-infrastructure profiles.

§4.1 evaluates on three infrastructures:

* **M1** — 8-core Intel i7-2630QM 2.9 GHz, 8 GB RAM (scale-up, loopback TCP);
* **M2** — AWS m4.2xlarge, 8-core Xeon E5-2676v3 2.4 GHz, 32 GB (scale-up);
* **C1** — 8 nodes x 8 cores Xeon 3.0 GHz, 1-GbE between nodes (scale-out).

The scale-up machines run ``k`` worker partitions as processes on one box
communicating over loopback; the cluster places workers round-robin on the 8
nodes, so co-located workers enjoy loopback while cross-node traffic pays
Ethernet costs — exactly the distinction that makes C1 "more pronounced" for
partitioning quality (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simulation.network import NetworkModel, ethernet_1g, loopback_tcp

__all__ = ["MachineProfile", "ClusterSpec", "M1", "M2", "C1", "make_cluster"]

#: node hosting the centralized controller
CONTROLLER_NODE = 0


@dataclass(frozen=True)
class MachineProfile:
    """CPU cost parameters of one worker core.

    ``vertex_compute_time`` is the cost of one vertex-function execution
    excluding its edge scan; ``edge_compute_time`` is charged per out-edge
    visited; ``message_handling_time`` per locally delivered message;
    ``barrier_ack_time`` is the CPU cost of participating in one barrier.
    """

    name: str
    vertex_compute_time: float
    edge_compute_time: float
    message_handling_time: float
    barrier_ack_time: float = 2.5e-5
    controller_dispatch_time: float = 8.0e-6
    #: fixed cost of waking up / dispatching one compute task on a worker
    #: (thread scheduling, cache warm-up) — charged once per (query,
    #: iteration, worker) task, which is what makes scattering a small
    #: frontier over many workers expensive.
    task_overhead_time: float = 1.5e-5


#: i7-2630QM, 2.9 GHz (the slowest machine of the three)
M1 = MachineProfile(
    name="M1",
    vertex_compute_time=2.2e-6,
    edge_compute_time=4.5e-7,
    message_handling_time=3.0e-7,
    task_overhead_time=2.0e-5,
)

#: AWS m4.2xlarge Xeon E5-2676v3, 2.4 GHz but big L3 — comparable per-vertex
M2 = MachineProfile(
    name="M2",
    vertex_compute_time=1.8e-6,
    edge_compute_time=4.0e-7,
    message_handling_time=2.5e-7,
    task_overhead_time=1.5e-5,
)

#: Cluster nodes: Xeon 3.0 GHz
C1_NODE = MachineProfile(
    name="C1-node",
    vertex_compute_time=1.6e-6,
    edge_compute_time=3.5e-7,
    message_handling_time=2.5e-7,
    task_overhead_time=1.5e-5,
)


@dataclass
class ClusterSpec:
    """A set of ``k`` workers placed on nodes, plus the link cost matrix.

    Parameters
    ----------
    num_workers:
        ``k`` — number of worker partitions.
    machine:
        Per-core CPU profile shared by all workers.
    num_nodes:
        Physical nodes; workers are placed round-robin (worker ``w`` on node
        ``w % num_nodes``).
    intra_node / inter_node:
        Network models for co-located respectively cross-node links.
    """

    num_workers: int
    machine: MachineProfile
    num_nodes: int = 1
    intra_node: NetworkModel = field(default_factory=loopback_tcp)
    inter_node: NetworkModel = field(default_factory=ethernet_1g)
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise SimulationError("need at least one worker")
        if self.num_nodes < 1:
            raise SimulationError("need at least one node")

    # ------------------------------------------------------------------
    def node_of(self, worker: int) -> int:
        """Physical node hosting ``worker`` (round-robin placement)."""
        if not 0 <= worker < self.num_workers:
            raise SimulationError(f"unknown worker {worker}")
        return worker % self.num_nodes

    def link(self, w1: int, w2: int) -> NetworkModel:
        """Network model of the link between two workers."""
        if self.node_of(w1) == self.node_of(w2):
            return self.intra_node
        return self.inter_node

    def controller_link(self, worker: int) -> NetworkModel:
        """Network model between a worker and the controller."""
        if self.node_of(worker) == CONTROLLER_NODE:
            return self.intra_node
        return self.inter_node


def make_cluster(kind: str, num_workers: int) -> ClusterSpec:
    """Build one of the paper's infrastructures.

    ``kind`` is one of ``"M1"``, ``"M2"`` (scale-up: all workers on one
    machine, loopback TCP) or ``"C1"`` (8-node cluster, 1-GbE, round-robin
    worker placement).
    """
    if kind == "M1":
        return ClusterSpec(
            num_workers=num_workers,
            machine=M1,
            num_nodes=1,
            inter_node=loopback_tcp(),
            name=f"M1-k{num_workers}",
        )
    if kind == "M2":
        return ClusterSpec(
            num_workers=num_workers,
            machine=M2,
            num_nodes=1,
            inter_node=loopback_tcp(),
            name=f"M2-k{num_workers}",
        )
    if kind == "C1":
        num_nodes = min(8, num_workers)
        per_node = max(1, -(-num_workers // num_nodes))  # ceil division
        inter = ethernet_1g()
        if per_node > 1:
            # co-located workers share their node's single 1-GbE NIC
            inter = NetworkModel(
                latency=inter.latency,
                bandwidth=inter.bandwidth / per_node,
                serialize_per_message=inter.serialize_per_message,
                deserialize_per_message=inter.deserialize_per_message,
                batch_overhead=inter.batch_overhead * per_node,
                control_overhead=inter.control_overhead,
                name=f"ethernet-1g/{per_node}",
            )
        return ClusterSpec(
            num_workers=num_workers,
            machine=C1_NODE,
            num_nodes=num_nodes,
            inter_node=inter,
            name=f"C1-k{num_workers}",
        )
    raise SimulationError(f"unknown infrastructure kind {kind!r}")
