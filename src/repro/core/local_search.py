"""Local search heuristic — Algorithm 2 of the paper.

Repeatedly enumerate all successor states reachable by moving one cluster's
local scope from one worker to another (subject to the δ balance check of
line 15), take the successor with minimal cost, and stop at the first local
minimum.

The enumeration is vectorised: with ``U`` clusters and ``k`` workers the
``U x k x k`` candidate tensor is evaluated in a handful of numpy
operations per step, which is what makes the controller's 2-second budget
realistic even in Python ("query-aware partitioning is fast because it
operates on a small number of queries rather than a large number of
vertices", §1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.core.state import QcutState

__all__ = ["best_successor", "local_search"]


@lru_cache(maxsize=None)
def _off_diagonal(k: int) -> np.ndarray:
    """Read-only ``(k, k)`` mask of the moves that change worker (a != b)."""
    mask = ~np.eye(k, dtype=bool)
    mask.flags.writeable = False
    return mask


def _candidate_tensor(state: QcutState) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate every (unit, w_from, w_to) move.

    Returns
    -------
    (delta_cost, feasible):
        ``delta_cost[u, a, b]`` — cost change of moving unit ``u``'s mass
        from worker ``a`` to worker ``b``;
        ``feasible[u, a, b]`` — whether the move exists (mass > 0, a != b)
        and passes the balance constraint of Algorithm 2 line 15.
    """
    weighted = state.weighted  # (U, k): drives cost and the workload term
    union = state.union  # (U, k): distinct vertices, drives |V(w)|
    U, k = weighted.shape
    if U == 0:
        empty = np.zeros((0, k, k))
        return empty, np.zeros((0, k, k), dtype=bool)

    xw = weighted[:, :, None]  # weighted mass moved, broadcast over targets
    # --- new per-unit row maxima of the weighted matrix after the move -----
    # new row = original with source zeroed and target incremented.
    if k >= 2:
        largest = np.partition(weighted, k - 2, axis=1)
        top1, top2 = largest[:, -1:], largest[:, -2:-1]  # (U, 1) each
    else:
        top1, top2 = weighted, 0.0
    # max of the row excluding column a: top1 unless a IS the argmax column
    # (on a tie for the maximum top2 == top1, so either column will do)
    max_excl = np.where(weighted == top1, top2, top1)
    target_val = weighted[:, None, :] + xw  # value at column b after the move
    # the max over w != a is covered by max_excl (with b's growth dominated
    # by target_val, since target_val >= weighted[u, b])
    new_max = np.maximum(max_excl[:, :, None], target_val)  # (U, a, b)
    # a unit contributes (row total - row max) and a move keeps the total;
    # on the integer-valued masses of a snapshot this difference of maxima
    # is bit for bit the difference of the two contributions
    delta = top1[:, :, None] - new_max

    # --- feasibility ---------------------------------------------------------
    # balance check: the load change of the move is (union + weighted) / 2
    x_load = (union[:, :, None] + xw) / 2.0
    loads = state.loads()
    lf = loads[None, :, None] - x_load  # (U, a, b): source load after move
    lt = loads[None, None, :] + x_load  # (U, a, b): target load after move
    top = np.abs(lf - lt)
    bottom = np.maximum(lf, lt)
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.where(bottom > 0, top / bottom, 0.0)
    feasible = (xw > 0) & _off_diagonal(k) & (imbalance < state.delta)
    return delta, feasible


def best_successor(state: QcutState) -> Optional[Tuple[int, int, int, float]]:
    """The (unit, w_from, w_to, delta_cost) of the best feasible move.

    Returns ``None`` when no feasible move exists.  Ties are broken
    deterministically by flat index.
    """
    delta, feasible = _candidate_tensor(state)
    if not feasible.any():
        return None
    masked = np.where(feasible, delta, np.inf)
    flat = int(np.argmin(masked))
    u, a, b = np.unravel_index(flat, masked.shape)
    return int(u), int(a), int(b), float(masked[u, a, b])


def local_search(state: QcutState, max_steps: int = 10_000) -> QcutState:
    """Algorithm 2: descend to a local minimum by best-improvement moves.

    Mutates and returns ``state``.  Only strictly improving moves are taken
    (``c_{s'} < c_s``), so termination is guaranteed; ``max_steps`` is a
    safety net.
    """
    for _ in range(max_steps):
        best = best_successor(state)
        if best is None:
            break
        unit, w_from, w_to, delta_cost = best
        if delta_cost >= 0.0:
            break
        state.apply_move(unit, w_from, w_to)
    return state
