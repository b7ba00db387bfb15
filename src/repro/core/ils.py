"""Iterated local search — Algorithm 1 of the paper.

::

    state s_hat <- InitialSolution()
    while not Terminated():
        s <- Perturbation(s_hat)
        s <- LocalSearch(s)
        if c_s < c_s_hat:
            s_hat <- s

Requirements from §3.2.2: (a) retrieve low-cost solutions effectively when
given time, (b) provide the best found solution when interrupted, (c) avoid
overfitting to specific workloads.  The implementation is interruptible
(a deterministic round budget standing in for the paper's 2-second
controller budget, plus its "terminate when a result is needed" criterion as
a callback) and records a cost trace for the Figure 6g convergence plot.  It
never reads the host clock, so a plan depends on the inputs and the seed
alone.

One deliberate refinement: the initial solution is local-searched before the
loop starts, so the incumbent after round 0 is already a local minimum (the
paper's InitialSolution is the current partitioning "as received by the
workers"; descending from it first never hurts and matches the figure, whose
trace starts with a steep drop before the first perturbation marker).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.local_search import local_search
from repro.core.perturbation import WordStream, perturb
from repro.core.state import QcutState

__all__ = ["IlsResult", "iterated_local_search"]


@dataclass
class IlsResult:
    """Outcome of one ILS run."""

    best_state: QcutState
    initial_cost: float
    best_cost: float
    rounds: int
    #: (round index, incumbent cost after the round) — round 0 is the
    #: initial local search; later rounds follow perturbations.
    cost_trace: List[Tuple[int, float]] = field(default_factory=list)
    #: round indices at which a perturbation was applied (Fig. 6g markers)
    perturbation_rounds: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved (0..1)."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.best_cost / self.initial_cost


def iterated_local_search(
    initial: QcutState,
    max_rounds: int = 50,
    seed: int = 0,
    terminated: Optional[Callable[[], bool]] = None,
    balance_first: bool = True,
) -> IlsResult:
    """Run Algorithm 1 starting from ``initial`` (which is not mutated).

    Parameters
    ----------
    max_rounds:
        Deterministic round budget (each round = perturbation + local
        search).  This is the reproducible stand-in for the paper's
        wall-clock budget.
    terminated:
        Optional external interrupt (the adaptivity module "interrupting the
        computation as soon as a result is needed", Appendix A.3); checked
        between rounds, so the best-so-far solution is always available —
        requirement (b) of §3.2.2.
    balance_first:
        Whether a candidate may give up cost to buy balance.  ``False``
        accepts a candidate only if it is cheaper and no more unbalanced
        than the incumbent (or δ-balanced): the controller's choice for a
        snapshot taken while no admission round was waiting, where latency
        is a query's own service time and balance does not buy it.
    """
    words = WordStream(np.random.PCG64(seed))

    def better(a: QcutState, b: QcutState) -> bool:
        """Lexicographic acceptance: balance dominates, then cost.

        Appendix A.1 requires "all solution states have balanced workload";
        a δ-balanced state therefore always beats an unbalanced one, and a
        less-unbalanced state beats a more-unbalanced one — which is what
        lets Q-cut *repair* an unbalanced initial partitioning (Domain)
        rather than freezing on its low-cost but skewed incumbent.  Without
        ``balance_first`` cost dominates and balance is a side condition.
        """
        if not balance_first:
            return a.cost() < b.cost() and (
                a.is_balanced() or a.max_imbalance() <= b.max_imbalance()
            )
        a_ok, b_ok = a.is_balanced(), b.is_balanced()
        if a_ok != b_ok:
            return a_ok
        if a_ok:
            return a.cost() < b.cost()
        return (a.max_imbalance(), a.cost()) < (b.max_imbalance(), b.cost())

    incumbent = local_search(initial.copy())
    initial_cost = initial.cost()
    best_cost = incumbent.cost()
    trace: List[Tuple[int, float]] = [(0, best_cost)]
    perturbation_rounds: List[int] = []

    rounds = 0
    for round_idx in range(1, max_rounds + 1):
        if terminated is not None and terminated():
            break
        rounds = round_idx
        candidate = perturb(incumbent, words)
        perturbation_rounds.append(round_idx)
        candidate = local_search(candidate)
        if better(candidate, incumbent):
            incumbent = candidate
            best_cost = candidate.cost()
        trace.append((round_idx, best_cost))
        # at zero cost nothing is cheaper: only a balance repair, which
        # balance_first alone accepts, could still replace the incumbent
        if best_cost == 0.0 and (not balance_first or incumbent.is_balanced()):
            break

    return IlsResult(
        best_state=incumbent,
        initial_cost=initial_cost,
        best_cost=best_cost,
        rounds=rounds,
        cost_trace=trace,
        perturbation_rounds=perturbation_rounds,
    )
