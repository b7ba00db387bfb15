"""Perturbation subroutine — Appendix A.2 (Figure 8).

*"A good perturbation is neither too small (i.e., the algorithm gets stuck
in local minima), nor too large (i.e., the algorithm becomes uninformed)."*

The paper's strategy, reproduced verbatim:

I.   Randomly select a query (cluster) spread across at least two workers.
II.  Move all its local scopes to the worker with its largest local scope.
III. Re-establish workload balance by moving random local scopes from the
     maximally to the least loaded worker.

This injects "informed disorder": it merges one query, possibly overloading
a worker, and the rebalancing shuffles other scopes — a new basin for the
next local search without degenerating into a random restart.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

import numpy as np

from repro.core.state import QcutState

__all__ = ["WordStream", "perturb"]

_MASK32 = 0xFFFFFFFF


class WordStream:
    """The planner's random stream: 32-bit words of a seeded bit generator.

    ``below(n)`` returns, value for value, what ``Generator(bit_generator)
    .integers(0, n)`` returns for ``1 <= n < 2**32``, and takes from the
    stream the words that call takes: numpy splits each raw 64-bit output
    into its low, then its high 32 bits, and bounds one word with Lemire's
    multiply-shift, rejecting it when the low half of the product falls
    under ``(2**32 - n) % n``.  The algorithm is stated here instead of
    called because NEP 19 freezes the streams of bit generators but not the
    methods of ``Generator`` — and because a scalar ``integers`` call costs
    five times the arithmetic it does (docs/controller.md).

    Raw outputs are drawn ``BLOCK`` at a time, so the wrapped bit generator
    runs ahead of the stream: it belongs to the ``WordStream`` from
    construction on.
    """

    #: raw 64-bit outputs per refill (twice as many words)
    BLOCK = 256

    __slots__ = ("_bit_generator", "_words", "_next", "_served")

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._bit_generator = bit_generator
        self._words: List[int] = []
        self._next = 0
        #: words handed out from earlier blocks
        self._served = 0

    @property
    def consumed(self) -> int:
        """32-bit words handed out so far."""
        return self._served + self._next

    def _word(self) -> int:
        if self._next == len(self._words):
            raw = self._bit_generator.random_raw(self.BLOCK)
            halves = np.column_stack((raw & np.uint64(_MASK32), raw >> np.uint64(32)))
            self._served += self._next
            self._words = halves.ravel().tolist()  # low, high, low, high, ...
            self._next = 0
        word = self._words[self._next]
        self._next += 1
        return word

    def below(self, n: int) -> int:
        """A uniform integer in ``[0, n)``; consumes no word when ``n == 1``."""
        if n == 1:
            return 0
        product = self._word() * n
        if product & _MASK32 < n:  # n bounds the threshold from above
            threshold = (2**32 - n) % n
            while product & _MASK32 < threshold:
                product = self._word() * n
        return product >> 32


def _pick_split_unit(state: QcutState, words: WordStream) -> Optional[int]:
    """A random cluster whose scope spans >= 2 workers (step I)."""
    spread = (state.weighted > 0).sum(axis=1)
    candidates = np.flatnonzero(spread >= 2)
    if candidates.size == 0:
        return None
    return int(candidates[words.below(candidates.size)])


def perturb(
    state: QcutState,
    words: WordStream,
    max_rebalance_moves: int = 200,
) -> QcutState:
    """Apply the Figure 8 perturbation to (a copy of) ``state``.

    Returns a new state; the input is left untouched so ILS can keep its
    incumbent.  If no cluster is split (already perfect locality), a random
    cluster is bounced to a random other worker instead so the search still
    explores.
    """
    out = state.copy()
    k = out.num_workers
    if k < 2 or out.num_units == 0:
        return out

    unit = _pick_split_unit(out, words)
    if unit is None:
        # perfect locality: nudge a random unit to a random worker
        unit = words.below(out.num_units)
        sources = np.flatnonzero(out.weighted[unit] > 0)
        if sources.size == 0:
            return out
        src = int(sources[0])
        dst_choices = [w for w in range(k) if w != src]
        dst = dst_choices[words.below(len(dst_choices))]
        out.apply_move(unit, src, dst)
    else:
        # step II: fuse the unit on its largest-scope worker
        target = int(np.argmax(out.weighted[unit]))
        for src in np.flatnonzero(out.weighted[unit] > 0):
            if int(src) != target:
                out.apply_move(unit, int(src), target)

    _rebalance(out, words, max_rebalance_moves)
    return out


def _rebalance(state: QcutState, words: WordStream, max_moves: int) -> None:
    """Step III on ``state`` in place: random scopes from the maximally to
    the least loaded worker until δ holds.

    The moves are random (per the paper), so the walk may never satisfy δ;
    it then settles for the least imbalanced state it passed through.  The
    walk runs on plain scalars — ``k`` loads, the two masses per
    (worker, unit) and a sorted unit list per worker — and records a
    journal of its moves; only the winning prefix of that journal is
    applied to ``state``.  Loads are re-derived from integer-valued column
    sums by the formula of :meth:`QcutState.loads`, so every comparison
    sees the very floats a from-scratch recomputation would produce.

    RNG contract: exactly one ``words.below(len(movable))`` per move,
    indexing the units with scope on the maximally loaded worker in
    ascending order; ties for the maximal/least loaded worker go to the
    lowest worker id.
    """
    k = state.num_workers
    delta = state.delta
    base: List[float] = state.base.tolist()
    union: List[List[float]] = state.union.T.tolist()  # [worker][unit]
    weighted: List[List[float]] = state.weighted.T.tolist()
    union_mass = [sum(column) for column in union]
    weighted_mass = [sum(column) for column in weighted]
    loads = [(base[w] + union_mass[w] + weighted_mass[w]) / 2.0 for w in range(k)]
    # units with scope on each worker, ascending; filled on first use
    members: List[Optional[List[int]]] = [None] * k

    journal: List[Tuple[int, int, int]] = []
    top, low = max(loads), min(loads)
    imbalance = (top - low) / top if top > 0 else 0.0
    best_imbalance = imbalance
    best_len = 0
    below = words.below
    for _ in range(max_moves):
        if imbalance < delta:
            break  # the first balanced state is also the best one seen
        w_max = loads.index(top)
        w_min = loads.index(low)
        movable = members[w_max]
        if movable is None:
            column = weighted[w_max]
            movable = members[w_max] = [u for u in range(len(column)) if column[u] > 0]
        if not movable:
            break
        unit = movable.pop(below(len(movable)))
        journal.append((unit, w_max, w_min))

        union_from, weighted_from = union[w_max], weighted[w_max]
        union_to, weighted_to = union[w_min], weighted[w_min]
        xu = union_from[unit]
        xw = weighted_from[unit]
        union_from[unit] = 0.0
        weighted_from[unit] = 0.0
        target = members[w_min]
        if target is not None and weighted_to[unit] <= 0:
            insort(target, unit)
        union_to[unit] += xu
        weighted_to[unit] += xw
        union_mass[w_max] -= xu
        union_mass[w_min] += xu
        weighted_mass[w_max] -= xw
        weighted_mass[w_min] += xw
        loads[w_max] = (base[w_max] + union_mass[w_max] + weighted_mass[w_max]) / 2.0
        loads[w_min] = (base[w_min] + union_mass[w_min] + weighted_mass[w_min]) / 2.0

        top, low = max(loads), min(loads)
        imbalance = (top - low) / top if top > 0 else 0.0
        if imbalance < best_imbalance:
            best_imbalance = imbalance
            best_len = len(journal)

    for unit, src, dst in journal[:best_len]:
        state.apply_move(unit, src, dst)
