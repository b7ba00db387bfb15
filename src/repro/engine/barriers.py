"""Synchronization models (§3.3).

The paper's hybrid barrier synchronization integrates three barrier types:

A) **limited query barrier** — only the workers currently involved in a
   query synchronize through the controller;
B) **local query barrier** — the degenerate limited barrier with a single
   involved worker: the query proceeds with no controller round-trip at all
   ("communication-free execution as long as queries remain local");
C) **global barrier** — a STOP/START pair across *all* workers used for
   repartitioning (§3.4).

We implement three engine-wide synchronization modes to reproduce the
comparisons of Table 1 and Figure 6d:

``SyncMode.HYBRID``
    The paper's model: limited + local query barriers, periodic global
    STOP/START barriers for adaptation.
``SyncMode.GLOBAL_PER_QUERY``
    The Seraph-style state of the art [44]: each query gets an independent
    barrier, but every barrier spans *all* workers — even those without any
    active vertex for the query (they still must process the barrier ack,
    which is exactly the "redundant global barriers cause communication
    overhead" problem).
``SyncMode.SHARED_BSP``
    Classic Pregel: one barrier shared by every query; all queries advance
    in lock-step supersteps, so every query waits for the slowest one (the
    straggler problem of §3.3).
"""

from __future__ import annotations

import enum

__all__ = ["SyncMode"]


class SyncMode(enum.Enum):
    """Engine-wide synchronization model."""

    HYBRID = "hybrid"
    GLOBAL_PER_QUERY = "global-per-query"
    SHARED_BSP = "shared-bsp"
