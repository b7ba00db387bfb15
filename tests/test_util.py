"""``repro.util``: the sorted-set primitives against the numpy calls they
replace."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import in_sorted, sorted_unique

# narrow value ranges make duplicates, all-equal arrays and hits likely;
# the wide one reaches both ends of int64
int64_arrays = st.one_of(
    st.lists(st.integers(-5, 5), max_size=60),
    st.lists(st.integers(0, 3000), max_size=300),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
).map(lambda xs: np.asarray(xs, dtype=np.int64))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(int64_arrays)
@settings(max_examples=300, deadline=None)
def test_sorted_unique_is_np_unique(values):
    before = values.copy()
    assert_same_array(sorted_unique(values), np.unique(values))
    assert np.array_equal(values, before)  # the input is not sorted in place


@given(int64_arrays, int64_arrays)
@settings(max_examples=300, deadline=None)
def test_in_sorted_is_np_isin(values, table):
    ascending = np.sort(table)  # duplicates stay
    assert_same_array(in_sorted(values, ascending), np.isin(values, ascending))
    assert_same_array(in_sorted(values, sorted_unique(table)), np.isin(values, table))


def test_the_corner_cases_by_name():
    empty = np.empty(0, dtype=np.int64)
    one = np.array([4], dtype=np.int64)
    same = np.full(7, 4, dtype=np.int64)
    assert_same_array(sorted_unique(empty), empty)
    assert_same_array(sorted_unique(one), one)
    assert_same_array(sorted_unique(same), one)
    assert in_sorted(empty, one).tolist() == []
    assert in_sorted(one, empty).tolist() == [False]
    assert in_sorted(same, one).tolist() == [True] * 7
    # beyond either end of the table
    assert in_sorted(np.array([3, 4, 5]), one).tolist() == [False, True, False]

