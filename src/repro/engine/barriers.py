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
comparisons of Table 1 and Figure 6d.  Each is one barrier rule — a
*participant set* and a *release rule* — and the modes differ only in how
wide the set is (Hauck et al.'s intra- vs inter-query synchronization):

``SyncMode.HYBRID``
    The paper's model.  Participants: the workers a query's iteration
    involves.  Released per query by the controller (limited barrier), or
    on the worker itself when that set is one worker (local barrier);
    periodic STOP/START barriers for adaptation.
``SyncMode.GLOBAL_PER_QUERY``
    The Seraph-style state of the art [44].  Participants: every live
    worker, per query — even those without any active vertex for the
    query (they still must process the barrier ack, which is exactly the
    "redundant global barriers cause communication overhead" problem).
    Released per query by the controller.
``SyncMode.SHARED_BSP``
    Classic Pregel.  Participants: every live worker × every running
    query.  Released together once the superstep's last task settled, so
    every query waits for the slowest one (the straggler problem of
    §3.3).

Everything else — compute dispatch, the ack path, releasing a started or
restored query, rotating a released iteration — is one path shared by the
three, and so are two rules (see ``docs/engine.md`` § "Synchronization
modes"):

* a query tainted by a crash waits at its barrier, as under a STOP,
  until the recovery's rollback releases it;
* a started query joins the next release: its own first dispatch, or
  under ``SHARED_BSP`` the next superstep, which every query started at
  the same instant shares.
"""

from __future__ import annotations

import enum

__all__ = ["SyncMode"]


class SyncMode(enum.Enum):
    """Engine-wide synchronization model."""

    HYBRID = "hybrid"
    GLOBAL_PER_QUERY = "global-per-query"
    SHARED_BSP = "shared-bsp"
