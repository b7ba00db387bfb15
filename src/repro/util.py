"""Small shared numpy utilities.

Home of the vectorized range-expansion idiom used by the scope store, the
batched streaming partitioners, and the benchmarks, and of the sorted-set
primitives of the controller snapshot and the churn flush — one copy
instead of a re-derivation at every call site.
"""

from __future__ import annotations

import numpy as np

__all__ = ["concat_ranges", "sorted_unique", "in_sorted"]

_EMPTY = np.empty(0, dtype=np.int64)


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenated ranges ``[starts[i], starts[i]+counts[i])``.

    Equivalent to ``np.concatenate([np.arange(s, s + c) for s, c in
    zip(starts, counts)])`` without the Python loop: the classic
    cumsum/repeat offset trick.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct elements of a 1-d array, ascending — ``np.unique(values)``.

    Sort plus neighbour compare.  ``np.unique`` on integers takes a
    hash-table path in numpy 2.4 that costs 6-15x this on the few thousand
    ids a scope merge or a churn delta carries (docs/controller.md has the
    table).
    """
    ordered = np.sort(values)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def in_sorted(values: np.ndarray, ascending_table: np.ndarray) -> np.ndarray:
    """Membership mask ``np.isin(values, ascending_table)`` by binary search.

    ``ascending_table`` must be non-decreasing (duplicates are fine); the
    result is wrong, silently, when it is not.
    """
    if ascending_table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(ascending_table, values)
    np.minimum(pos, ascending_table.size - 1, out=pos)
    return ascending_table[pos] == values
