"""Tests for columnar storage, ordered indexes, the buffer pool and Database."""

import numpy as np
import pytest

from repro.catalog.schema import Column, ColumnType, Table
from repro.catalog.statistics import NULL_SENTINEL
from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.index import OrderedIndex
from repro.storage.table_data import TableData, build_table_data


def _toy_table() -> Table:
    return Table("toy", [Column("id"), Column("label", ColumnType.TEXT), Column("x")])


class TestTableData:
    def test_rejects_inconsistent_lengths(self):
        with pytest.raises(StorageError):
            TableData(_toy_table(), {"id": np.arange(3), "x": np.arange(4)})

    def test_rejects_unknown_column(self):
        with pytest.raises(StorageError):
            TableData(_toy_table(), {"bogus": np.arange(3)})

    def test_encode_decode_text(self):
        data = build_table_data(
            _toy_table(),
            {"id": [1, 2, 3], "label": [0, 1, 0], "x": [10, 20, 30]},
            {"label": ["red", "blue"]},
        )
        assert data.decode("label", 1) == "blue"
        assert data.encode("label", "red") == 0
        assert data.encode("label", "missing") == -1
        assert data.encode("label", None) == NULL_SENTINEL
        assert data.decode("x", 20) == 20

    def test_codes_matching_pattern(self):
        data = build_table_data(
            _toy_table(),
            {"id": [1], "label": [0], "x": [0]},
            {"label": ["Dark Knight", "Knight Rider", "Sunrise"]},
        )
        assert set(data.codes_matching_pattern("label", "%Knight%").tolist()) == {0, 1}
        assert data.codes_matching_pattern("label", "Dark%").tolist() == [0]
        assert data.codes_matching_pattern("label", "%Rider").tolist() == [1]

    def test_select_and_sample_rows(self):
        data = build_table_data(
            _toy_table(), {"id": list(range(100)), "label": [0] * 100, "x": list(range(100))},
            {"label": ["a"]},
        )
        subset = data.select_rows(np.array([1, 5, 9]))
        assert subset.row_count == 3
        assert subset.column("x").tolist() == [1, 5, 9]
        sampled = data.sample_rows(0.5, seed=3)
        assert 20 < sampled.row_count < 80
        with pytest.raises(StorageError):
            data.sample_rows(0.0)

    def test_page_count_grows_with_rows(self):
        small = build_table_data(_toy_table(), {"id": [1], "label": [0], "x": [1]})
        big = build_table_data(
            _toy_table(),
            {"id": list(range(5000)), "label": [0] * 5000, "x": [1] * 5000},
        )
        assert big.page_count > small.page_count


class TestOrderedIndex:
    def test_lookup_eq_with_duplicates(self):
        index = OrderedIndex("t", "x", np.array([5, 3, 5, 1, 5], dtype=np.int64))
        result = index.lookup_eq(5)
        assert sorted(result.row_ids.tolist()) == [0, 2, 4]
        assert result.index_pages >= 1

    def test_lookup_range_bounds(self):
        index = OrderedIndex("t", "x", np.arange(100, dtype=np.int64))
        rows = index.lookup_range(low=10, high=19).row_ids
        assert sorted(rows.tolist()) == list(range(10, 20))
        rows_open = index.lookup_range(low=95, high=None).row_ids
        assert sorted(rows_open.tolist()) == list(range(95, 100))
        with pytest.raises(StorageError):
            index.lookup_range()

    def test_lookup_in(self):
        index = OrderedIndex("t", "x", np.array([1, 2, 2, 3], dtype=np.int64))
        result = index.lookup_in(np.array([2, 3, 99]))
        assert sorted(result.row_ids.tolist()) == [1, 2, 3]

    def test_probe_many_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50, 300).astype(np.int64)
        index = OrderedIndex("t", "x", values)
        keys = rng.integers(0, 60, 40).astype(np.int64)
        probe_pos, matched = index.probe_many(keys).expand()
        expected = [(i, j) for i, key in enumerate(keys) for j in range(300) if values[j] == key]
        got = sorted(zip(probe_pos.tolist(), matched.tolist()))
        assert got == sorted(expected)

    def test_sorted_row_ids_order_values(self):
        values = np.array([9, 1, 5], dtype=np.int64)
        index = OrderedIndex("t", "x", values)
        assert values[index.sorted_row_ids()].tolist() == [1, 5, 9]


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=10)
        first = pool.access_pages("t", 5)
        second = pool.access_pages("t", 5)
        assert first.misses == 5 and first.hits == 0
        assert second.hits == 5 and second.misses == 0
        assert pool.stats.hit_ratio == pytest.approx(0.5)

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=4)
        pool.access_pages("a", 4)
        pool.access_pages("b", 2)  # evicts the two oldest pages of "a"
        assert pool.resident_pages == 4
        assert pool.resident_pages_of("a") == 2
        assert pool.stats.evictions == 2

    def test_invalidate_specific_relation(self):
        pool = BufferPool(capacity_pages=10)
        pool.access_pages("a", 3)
        pool.access_pages("b", 3)
        pool.invalidate("a")
        assert pool.resident_pages_of("a") == 0
        assert pool.resident_pages_of("b") == 3
        pool.invalidate()
        assert pool.resident_pages == 0

    def test_warm_does_not_count_stats(self):
        pool = BufferPool(capacity_pages=10)
        pool.warm("t", 5)
        assert pool.stats.accesses == 0
        assert pool.access_pages("t", 5).hits == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestDatabase:
    def test_indexes_built_for_fk_columns(self, imdb_db):
        assert imdb_db.has_index("movie_keyword", "movie_id")
        assert imdb_db.has_index("title", "id")
        assert imdb_db.index("title", "title") is None

    def test_statistics_available_for_all_tables(self, imdb_db):
        for name in imdb_db.table_names():
            assert imdb_db.statistics(name).row_count == imdb_db.table_data(name).row_count

    def test_with_config_shares_data_but_not_buffer_pool(self, imdb_db):
        from repro.config import DEFAULT_CONFIG

        clone = imdb_db.with_config(DEFAULT_CONFIG.with_overrides(shared_buffers=8 * 1024 * 1024))
        assert clone.table_data("title") is imdb_db.table_data("title")
        assert clone.buffer_pool is not imdb_db.buffer_pool

    def test_sample_copy_cascades(self, imdb_db):
        half = imdb_db.sample_copy({"title": 0.5}, seed=1)
        full_titles = imdb_db.table_data("title").row_count
        half_titles = half.table_data("title").row_count
        assert 0.35 * full_titles < half_titles < 0.65 * full_titles
        # cascade: movie_keyword rows must reference surviving titles only
        kept = half.table_data("title").column("id")
        mk = half.table_data("movie_keyword").column("movie_id")
        assert np.isin(mk, kept).all()
        # dimension tables untouched
        assert half.table_data("keyword").row_count == imdb_db.table_data("keyword").row_count

    def test_drop_caches_empties_pool(self, imdb_db):
        imdb_db.buffer_pool.warm("title", imdb_db.table_data("title").page_count)
        assert imdb_db.buffer_pool.resident_pages > 0
        imdb_db.drop_caches()
        assert imdb_db.buffer_pool.resident_pages == 0
