"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import ColumnType
from repro.catalog.statistics import NULL_SENTINEL, analyze_column
from repro.core.stats import bootstrap_confidence_interval
from repro.executor.operators import KeyMatch
from repro.storage.buffer_pool import BufferPool
from repro.storage.index import OrderedIndex

small_ints = st.integers(min_value=-50, max_value=50)


def join_match_positions(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return KeyMatch(left, right).positions()


class TestJoinMatchingProperties:
    @given(
        st.lists(small_ints, max_size=40),
        st.lists(small_ints, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_equal_bruteforce(self, left, right):
        left_arr = np.asarray(left, dtype=np.int64)
        right_arr = np.asarray(right, dtype=np.int64)
        lp, rp = join_match_positions(left_arr, right_arr)
        got = sorted(zip(lp.tolist(), rp.tolist()))
        expected = sorted(
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if left[i] == right[j]
        )
        assert got == expected

    @given(st.lists(small_ints, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_self_join_contains_diagonal(self, values):
        arr = np.asarray(values, dtype=np.int64)
        lp, rp = join_match_positions(arr, arr)
        pairs = set(zip(lp.tolist(), rp.tolist()))
        assert all((i, i) in pairs for i in range(len(values)))


class TestIndexProperties:
    @given(st.lists(small_ints, min_size=1, max_size=60), small_ints)
    @settings(max_examples=60, deadline=None)
    def test_lookup_eq_complete_and_sound(self, values, needle):
        arr = np.asarray(values, dtype=np.int64)
        index = OrderedIndex("t", "c", arr)
        rows = set(index.lookup_eq(int(needle)).row_ids.tolist())
        expected = {i for i, v in enumerate(values) if v == needle}
        assert rows == expected

    @given(st.lists(small_ints, min_size=1, max_size=60), small_ints, small_ints)
    @settings(max_examples=60, deadline=None)
    def test_range_lookup_matches_predicate(self, values, a, b):
        low, high = min(a, b), max(a, b)
        arr = np.asarray(values, dtype=np.int64)
        index = OrderedIndex("t", "c", arr)
        rows = set(index.lookup_range(low=low, high=high).row_ids.tolist())
        expected = {i for i, v in enumerate(values) if low <= v <= high}
        assert rows == expected


class TestStatisticsProperties:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_selectivities_bounded(self, values):
        arr = np.asarray(values, dtype=np.int64)
        stats = analyze_column("c", arr, ColumnType.INTEGER)
        for needle in values[:5]:
            assert 0.0 <= stats.equality_selectivity(float(needle)) <= 1.0
        if stats.min_value is not None:
            for op in ("<", "<=", ">", ">="):
                assert 0.0 <= stats.range_selectivity(op, float(values[0])) <= 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=5, max_size=100),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_null_frac_matches_injected_nulls(self, values, null_fraction):
        arr = np.asarray(values, dtype=np.int64)
        n_null = int(len(arr) * null_fraction)
        if n_null:
            arr = arr.copy()
            arr[:n_null] = NULL_SENTINEL
        stats = analyze_column("c", arr, ColumnType.INTEGER)
        assert stats.null_frac == n_null / len(arr)


class TestBufferPoolProperties:
    @given(
        st.integers(min_value=1, max_value=32),
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(min_value=0, max_value=20)),
            max_size=60,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_residency_never_exceeds_capacity(self, capacity, accesses):
        pool = BufferPool(capacity)
        for relation, pages in accesses:
            pool.access_pages(relation, pages)
            assert pool.resident_pages <= capacity
        assert pool.stats.hits + pool.stats.misses == sum(p for _, p in accesses)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_second_access_hits_when_capacity_sufficient(self, capacity, pages):
        pool = BufferPool(capacity)
        pool.access_pages("t", pages)
        second = pool.access_pages("t", pages)
        if pages <= capacity:
            assert second.misses == 0


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_bootstrap_ci_ordered(self, values):
        ci = bootstrap_confidence_interval(np.asarray(values), n_resamples=200, seed=1)
        assert ci.low <= ci.mean + 1e-9
        assert ci.mean <= ci.high + 1e-9


class TestSplitProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_split_partition(self, seed):
        # hypothesis cannot inject pytest fixtures; build the workload lazily once.
        from repro.catalog.imdb import imdb_schema
        from repro.core.splits import generate_split
        from repro.workloads import build_job_workload

        global _CACHED_WORKLOAD
        try:
            workload = _CACHED_WORKLOAD
        except NameError:
            workload = build_job_workload(imdb_schema())
            globals()["_CACHED_WORKLOAD"] = workload
        split = generate_split(workload, "random", seed=seed)
        assert not set(split.train_ids) & set(split.test_ids)
        assert set(split.train_ids) | set(split.test_ids) == set(workload.query_ids())
