"""Query-cut cost functions (§2 and §3.2.2).

Two granularities:

* :func:`query_cut` / :func:`query_cut_excess` — the *metric* of §2:
  number of non-empty local query scopes (used to evaluate partitionings
  and in the Figure 1 motivating example);
* :func:`assignment_cost` — the *ILS cost function* of §3.2.2: for each
  query, the number of scope vertices not assigned to the worker holding its
  largest local scope.  Zero iff every query is fully local somewhere.

Both are defined on raw ``(scopes, assignment)`` inputs so they can score
real partitionings in tests and benchmarks; the incremental ILS-internal
version lives on :class:`repro.core.state.QcutState`.

The per-scope bincount lives in :func:`repro.core.scopes.scope_worker_counts`.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro.core.scopes import scope_worker_counts

__all__ = ["query_cut", "query_cut_excess", "assignment_cost"]


def query_cut(
    scopes: Dict[int, Set[int]], assignment: np.ndarray, k: int
) -> int:
    """§2 metric: ``sum_q |{w : LS(q, w) != {}}|``."""
    total = 0
    for scope in scopes.values():
        counts = scope_worker_counts(scope, assignment, k)
        total += int(np.count_nonzero(counts))
    return total


def query_cut_excess(
    scopes: Dict[int, Set[int]], assignment: np.ndarray, k: int
) -> int:
    """Query-cut minus the number of non-empty queries (Figure 1 counting).

    0 means no query is split across workers.
    """
    total = 0
    for scope in scopes.values():
        counts = scope_worker_counts(scope, assignment, k)
        nonzero = int(np.count_nonzero(counts))
        if nonzero:
            total += nonzero - 1
    return total


def assignment_cost(
    scopes: Dict[int, Set[int]], assignment: np.ndarray, k: int
) -> float:
    """§3.2.2 ILS cost on a concrete assignment.

    ``sum_q sum_{w != argmax_w' |LS(q, w')|} |LS(q, w)|`` — "the number of
    vertices that are not assigned to the worker with the largest query
    scope".  Zero when two workers execute two queries completely
    independently (the paper's example).
    """
    total = 0.0
    for scope in scopes.values():
        counts = scope_worker_counts(scope, assignment, k)
        if counts.sum() == 0:
            continue
        total += float(counts.sum() - counts.max())
    return total
