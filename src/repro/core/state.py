"""High-level Q-cut solution state (§3.2).

The controller's "scalable representation of global knowledge": instead of
vertices and edges, the optimization state tracks *scope fragments* — for
each query cluster ``u`` and worker ``w``, how much scope mass of ``u``
currently sits on ``w`` plus the identity of the original fragment, so the
final solution can be translated back into low-level ``move`` requests (the
Execute step of the MAPE loop).

Each fragment carries **two masses**:

``weighted``
    ``sum_{q in u} |LS(q, w)|`` — the per-query sum of §2/§A.1.  Overlapping
    queries count shared vertices once *per query*, so hotspot regions that
    many queries touch are heavy.  Used by both the cost function and the
    workload term.
``union``
    ``|union_{q in u} LS(q, w)|`` — the number of distinct vertices, i.e.
    how many vertices a move actually relocates.  Used for the ``|V(w)|``
    term and the move-transfer cost.

Workload model (Appendix A.1)::

    L_w = (|V(w)| + sum_q |LS(q, w)|) / 2

with the balance constraint of Algorithm 2 line 15: a move of mass ``x``
(here ``x = (x_union + x_weighted) / 2``, the load change it causes) must
keep ``|(L_w - x) - (L_w' + x)| / max(L_w - x, L_w' + x) < delta``.

Because non-scope vertices never move, we store ``base[w]`` (vertices on
``w`` outside every tracked scope); ``|V(w)| = base[w] + U[w]`` with ``U``
the union mass per worker.

Incremental planning state
--------------------------
The ILS probes loads, imbalance and cost far more often than it moves mass,
so the state maintains them instead of re-deriving them from the dense
matrices: :meth:`QcutState.apply_move` updates the per-worker column sums
of both matrices in O(1) and drops the cached imbalance/cost, which are
recomputed on the next read.  Fragment masses are integers (stored as
float64), so the maintained column sums equal the from-scratch
``matrix.sum(axis=0)`` *bit for bit*, and every quantity derived from them
by the same formula — loads, imbalance, balance verdicts — is identical to
the from-scratch value, not merely close.  All mutation must therefore go
through :meth:`QcutState.apply_move`; writing to ``weighted``/``union``
directly desynchronises the maintained sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import ControllerError

__all__ = ["Fragment", "QcutState", "Move"]


@dataclass(frozen=True)
class Fragment:
    """A local cluster scope at snapshot time: cluster ``u`` on worker ``w0``."""

    unit: int
    origin_worker: int
    #: distinct scope vertices of the cluster on the worker
    union_size: int
    #: per-query sum of local scope sizes (>= union_size when queries overlap)
    weighted_size: int


@dataclass(frozen=True)
class Move:
    """A high-level move: all of cluster ``unit``'s mass on ``src`` -> ``dst``."""

    unit: int
    src: int
    dst: int
    union_size: int
    weighted_size: int


class QcutState:
    """Mutable ILS solution state over cluster-scope fragments.

    Parameters
    ----------
    num_units:
        Number of query clusters (``<= 4k`` after Karger clustering).
    num_workers:
        ``k``.
    fragments:
        The snapshot fragments.
    base_vertices:
        Per-worker count of vertices outside every tracked scope.
    delta:
        Maximum allowed pairwise load imbalance (paper: 0.25).
    """

    def __init__(
        self,
        num_units: int,
        num_workers: int,
        fragments: List[Fragment],
        base_vertices: np.ndarray,
        delta: float = 0.25,
    ) -> None:
        if num_workers < 1:
            raise ControllerError("need at least one worker")
        base_vertices = np.asarray(base_vertices, dtype=np.float64)
        if base_vertices.shape != (num_workers,):
            raise ControllerError("base_vertices must have one entry per worker")
        self.num_units = num_units
        self.num_workers = num_workers
        self.delta = float(delta)
        self.base = base_vertices
        #: dense (units x workers) query-weighted scope-mass matrix
        self.weighted = np.zeros((num_units, num_workers), dtype=np.float64)
        #: dense (units x workers) distinct-vertex matrix
        self.union = np.zeros((num_units, num_workers), dtype=np.float64)
        #: fragment -> current worker
        self.placement: Dict[Tuple[int, int], int] = {}
        #: immutable snapshot masses by (unit, origin worker)
        self.fragment_sizes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: immutable unit -> fragment keys index (saves apply_move a scan
        #: over the whole placement table on every ILS move)
        self.unit_keys: Dict[int, List[Tuple[int, int]]] = {}
        for frag in fragments:
            if not 0 <= frag.unit < num_units:
                raise ControllerError(f"fragment references unknown unit {frag.unit}")
            if not 0 <= frag.origin_worker < num_workers:
                raise ControllerError(
                    f"fragment references unknown worker {frag.origin_worker}"
                )
            if frag.weighted_size < frag.union_size:
                raise ControllerError("weighted mass cannot be below union mass")
            key = (frag.unit, frag.origin_worker)
            if key in self.fragment_sizes:
                raise ControllerError(f"duplicate fragment {key}")
            self.fragment_sizes[key] = (int(frag.union_size), int(frag.weighted_size))
            self.placement[key] = frag.origin_worker
            self.unit_keys.setdefault(frag.unit, []).append(key)
            self.union[frag.unit, frag.origin_worker] += frag.union_size
            self.weighted[frag.unit, frag.origin_worker] += frag.weighted_size
        #: maintained column sums of ``union`` / ``weighted`` (integer-valued,
        #: hence exact under :meth:`apply_move`'s O(1) update)
        self._union_mass = self.union.sum(axis=0)
        self._weighted_mass = self.weighted.sum(axis=0)
        #: lazily cached imbalance / cost, dropped by :meth:`apply_move`
        self._imbalance: Optional[float] = None
        self._cost: Optional[float] = None

    # ------------------------------------------------------------------
    # load / balance
    # ------------------------------------------------------------------
    def scope_mass(self) -> np.ndarray:
        """Query-weighted scope mass ``sum_q |LS(q, w)|`` per worker."""
        return self._weighted_mass.copy()

    def vertex_counts(self) -> np.ndarray:
        """``|V(w)| = base[w] + union mass``."""
        return self.base + self._union_mass

    def loads(self) -> np.ndarray:
        """``L_w = (|V(w)| + sum_q |LS(q, w)|) / 2`` (Appendix A.1)."""
        return (self.base + self._union_mass + self._weighted_mass) / 2.0

    def move_load(self, unit: int, worker: int) -> float:
        """Load change a move of this unit-worker mass would cause."""
        return (self.union[unit, worker] + self.weighted[unit, worker]) / 2.0

    def pair_balance_ok(self, w_from: int, w_to: int, x: float) -> bool:
        """Algorithm 2 line 15: balance check for moving load ``x``."""
        loads = self.loads()
        lf = loads[w_from] - x
        lt = loads[w_to] + x
        top = abs(lf - lt)
        bottom = max(lf, lt)
        if bottom <= 0:
            return True
        return top / bottom < self.delta

    def max_imbalance(self) -> float:
        """Worst pairwise imbalance ``|L_w - L_w'| / max(...)`` of the state."""
        if self._imbalance is None:
            loads = self.loads()
            bottom = loads.max()
            top = bottom - loads.min()
            self._imbalance = float(top / bottom) if bottom > 0 else 0.0
        return self._imbalance

    def is_balanced(self) -> bool:
        """Whether every worker pair satisfies the δ constraint."""
        return self.max_imbalance() < self.delta

    # ------------------------------------------------------------------
    # cost (§3.2.2)
    # ------------------------------------------------------------------
    def cost(self) -> float:
        """Query-cut cost: weighted mass not on each cluster's top worker.

        ``sum_u sum_{w != argmax_w' weighted[u, w']} weighted[u, w]`` — zero
        when every cluster is fully local somewhere.
        """
        if self._cost is None:
            if self.num_units == 0:
                self._cost = 0.0
            else:
                totals = self.weighted.sum(axis=1)
                maxima = self.weighted.max(axis=1)
                self._cost = float((totals - maxima).sum())
        return self._cost

    def unit_cost(self, unit: int) -> float:
        """Cost contribution of one cluster."""
        row = self.weighted[unit]
        return float(row.sum() - row.max())

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def apply_move(self, unit: int, w_from: int, w_to: int) -> Move:
        """Move all of ``unit``'s scope mass on ``w_from`` to ``w_to``."""
        if w_from == w_to:
            raise ControllerError("move source equals destination")
        xu = self.union[unit, w_from]
        xw = self.weighted[unit, w_from]
        if xw <= 0:
            raise ControllerError(
                f"unit {unit} has no scope mass on worker {w_from}"
            )
        self.union[unit, w_from] = 0.0
        self.union[unit, w_to] += xu
        self.weighted[unit, w_from] = 0.0
        self.weighted[unit, w_to] += xw
        self._union_mass[w_from] -= xu
        self._union_mass[w_to] += xu
        self._weighted_mass[w_from] -= xw
        self._weighted_mass[w_to] += xw
        self._imbalance = None
        self._cost = None
        for key in self.unit_keys.get(unit, ()):
            if self.placement[key] == w_from:
                self.placement[key] = w_to
        return Move(
            unit=unit, src=w_from, dst=w_to, union_size=int(xu), weighted_size=int(xw)
        )

    def copy(self) -> "QcutState":
        """Deep copy (ILS keeps the incumbent while exploring)."""
        clone = object.__new__(QcutState)
        clone.num_units = self.num_units
        clone.num_workers = self.num_workers
        clone.delta = self.delta
        clone.base = self.base  # immutable by convention
        clone.weighted = self.weighted.copy()
        clone.union = self.union.copy()
        clone._union_mass = self._union_mass.copy()
        clone._weighted_mass = self._weighted_mass.copy()
        clone._imbalance = self._imbalance
        clone._cost = self._cost
        clone.placement = dict(self.placement)
        clone.fragment_sizes = self.fragment_sizes  # immutable by convention
        clone.unit_keys = self.unit_keys  # immutable by convention
        return clone

    # ------------------------------------------------------------------
    # solution extraction
    # ------------------------------------------------------------------
    def relocated_fragments(self) -> List[Tuple[int, int, int]]:
        """Fragments that ended up away from home: (unit, origin, current)."""
        out = []
        for (unit, origin), current in sorted(self.placement.items()):
            if current != origin:
                out.append((unit, origin, current))
        return out

    def relocation_workers(self) -> FrozenSet[int]:
        """Workers touched by the solution's relocations (origins ∪ targets).

        The superset of the workers a partial STOP/START barrier must halt
        for this solution; the controller narrows it to the moves that
        still carry vertices when it emits the low-level plan.
        """
        workers = set()
        for _unit, origin, current in self.relocated_fragments():
            workers.add(origin)
            workers.add(current)
        return frozenset(workers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QcutState(units={self.num_units}, k={self.num_workers}, "
            f"cost={self.cost():.0f}, imbalance={self.max_imbalance():.3f})"
        )
