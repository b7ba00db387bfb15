"""Network cost model.

The paper's latency numbers are dominated by messaging costs between
workers: serialization CPU time, TCP latency (loopback for the scale-up
machines M1/M2, 1-Gigabit Ethernet for the C1 cluster), bandwidth, and the
batching policy of §4.1 ("the sender thread batches vertex messages with a
maximum of 32 vertex messages per batch and 32 kilobytes batch size").

:class:`NetworkModel` captures these four knobs; the engine charges

* ``serialize_time(n)``   — CPU time on the *sender* for packing n messages,
* ``transfer_time(n)``    — wire time for a stream of n messages (one
  propagation latency for the pipelined stream + a per-batch stack overhead
  + bytes / bandwidth, with the stream split into batches according to the
  32-message / 32-kB policy), and
* ``control_latency``     — one-way latency of a small control message
  (barrier ack / release, stats).

:meth:`NetworkModel.send_cost` returns the three vertex-message charges of
one (sender, destination) cell in one call.  The engine keeps its results
in a memo per link model and count, so it computes each (link, count) once;
the formulas live here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

__all__ = ["NetworkModel", "loopback_tcp", "ethernet_1g", "zero_cost"]


@dataclass(frozen=True)
class NetworkModel:
    """Cost parameters of one worker-to-worker (or worker-controller) link.

    Attributes
    ----------
    latency:
        One-way propagation + stack traversal latency per stream (seconds).
    bandwidth:
        Payload bandwidth in bytes/second.
    serialize_per_message:
        Sender CPU seconds per vertex message (serialization, §2's
        "overhead for serializing and deserializing messages").
    message_bytes:
        Size of one vertex message on the wire.
    batch_messages / batch_bytes:
        Batching limits from §4.1 (32 messages / 32 kB per batch).
    name:
        Label used in reports.
    """

    latency: float
    bandwidth: float
    serialize_per_message: float = 1.0e-6
    #: receiver CPU seconds per remote vertex message (deserialization —
    #: the other half of §2's "serializing and deserializing messages")
    deserialize_per_message: float = 1.5e-6
    #: per-batch wire/stack cost (syscall + TCP segmentation per batch);
    #: §2 calls out "passing the multi-layered TCP/IP stack" as a latency
    #: source — each 32-message batch pays it.
    batch_overhead: float = 5.0e-6
    #: fixed RPC cost of a control message (framework serialization, thread
    #: wake-up on the controller path) added on top of the wire latency
    control_overhead: float = 0.0
    message_bytes: int = 64
    batch_messages: int = 32
    batch_bytes: int = 32 * 1024
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")
        if self.batch_messages < 1 or self.batch_bytes < self.message_bytes:
            raise ValueError("batching limits too small")

    # ------------------------------------------------------------------
    @cached_property
    def messages_per_batch(self) -> int:
        """Vertex messages one wire batch holds under the §4.1 limits."""
        return min(
            self.batch_messages, max(self.batch_bytes // self.message_bytes, 1)
        )

    def num_batches(self, num_messages: int) -> int:
        """How many wire batches ``num_messages`` vertex messages need."""
        if num_messages <= 0:
            return 0
        return math.ceil(num_messages / self.messages_per_batch)

    def serialize_time(self, num_messages: int) -> float:
        """Sender-side CPU seconds to pack ``num_messages`` messages."""
        return self.serialize_per_message * max(num_messages, 0)

    def send_cost(self, num_messages: int) -> Tuple[float, int, float]:
        """``(serialize seconds, wire batches, wire seconds)`` of sending
        ``num_messages`` (> 0) vertex messages over this link.

        The serialize seconds are :meth:`serialize_time`, the batch count
        :meth:`num_batches`; the wire pays one propagation latency for the
        (pipelined) stream, a per-batch stack-traversal overhead, and the
        payload at line rate.
        """
        batches = math.ceil(num_messages / self.messages_per_batch)
        payload = num_messages * self.message_bytes
        return (
            self.serialize_per_message * num_messages,
            batches,
            self.latency + batches * self.batch_overhead + payload / self.bandwidth,
        )

    def transfer(self, num_messages: int) -> Tuple[int, float]:
        """``(wire batches, wire seconds)`` for ``num_messages`` messages."""
        if num_messages <= 0:
            return 0, 0.0
        _serialize, batches, wire = self.send_cost(num_messages)
        return batches, wire

    def transfer_time(self, num_messages: int) -> float:
        """Wire seconds for ``num_messages`` messages (see :meth:`transfer`)."""
        return self.transfer(num_messages)[1]

    def deserialize_time(self, num_messages: int) -> float:
        """Receiver-side CPU seconds to unpack ``num_messages`` messages."""
        return self.deserialize_per_message * max(num_messages, 0)

    @property
    def control_latency(self) -> float:
        """One-way latency of a small control message (ack/release/stats)."""
        return self.latency + self.control_overhead + self.message_bytes / self.bandwidth

    def control_rtt(self) -> float:
        """Round-trip of a control exchange (ack to controller + release)."""
        return 2.0 * self.control_latency

    def retransmit_delay(self, num_messages: int) -> float:
        """Extra delivery delay when a batch of ``num_messages`` is dropped.

        The sender notices the loss after an ack-timeout round trip and puts
        the batch back on the wire — reliable transport turns a drop into
        latency, never into lost content.
        """
        return self.control_rtt() + self.transfer_time(num_messages)


def loopback_tcp() -> NetworkModel:
    """Loopback TCP between processes on one machine (scale-up: M1, M2).

    ~20 us per syscall round through the local stack, effectively
    memory-speed bandwidth.
    """
    return NetworkModel(
        latency=20e-6,
        bandwidth=4.0e9,
        serialize_per_message=1.0e-6,
        deserialize_per_message=1.5e-6,
        batch_overhead=8.0e-6,
        control_overhead=120e-6,
        name="loopback-tcp",
    )


def ethernet_1g() -> NetworkModel:
    """1-Gigabit Ethernet between cluster nodes (scale-out: C1).

    ~200 us end-to-end latency for a small message, 125 MB/s line rate.
    """
    return NetworkModel(
        latency=200e-6,
        bandwidth=125e6,
        serialize_per_message=1.0e-6,
        deserialize_per_message=1.5e-6,
        batch_overhead=30.0e-6,
        control_overhead=150e-6,
        name="ethernet-1g",
    )


def zero_cost() -> NetworkModel:
    """Free network — for unit tests that isolate compute costs."""
    return NetworkModel(
        latency=0.0,
        bandwidth=1e18,
        serialize_per_message=0.0,
        deserialize_per_message=0.0,
        batch_overhead=0.0,
        control_overhead=0.0,
        name="zero-cost",
    )
