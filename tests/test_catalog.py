"""Tests for schema definitions, ANALYZE statistics and the data generators."""

import numpy as np
import pytest

from repro.catalog.datagen import (
    categorical_column,
    foreign_keys,
    primary_keys,
    year_column,
    zipf_choice,
    zipf_weights,
)
from repro.catalog.imdb import MOVIE_RELATED_TABLES, imdb_schema
from repro.catalog.schema import Column, ColumnType, ForeignKey, Schema, Table
from repro.catalog.statistics import NULL_SENTINEL, analyze_column, analyze_table
from repro.catalog.stack import stack_schema
from repro.errors import CatalogError


class TestSchemaObjects:
    def test_table_rejects_duplicate_columns(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a"), Column("a")])

    def test_table_rejects_unknown_primary_key(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a")], primary_key="b")

    def test_column_lookup(self):
        table = Table("t", [Column("id"), Column("x", ColumnType.TEXT)])
        assert table.column("x").ctype is ColumnType.TEXT
        with pytest.raises(CatalogError):
            table.column("missing")

    def test_indexed_columns_include_primary_key(self):
        table = Table("t", [Column("id"), Column("x")])
        table.add_index("x")
        assert table.indexed_columns() == {"id", "x"}

    def test_schema_foreign_key_validation(self):
        parent = Table("p", [Column("id")])
        child = Table("c", [Column("id"), Column("p_id")])
        schema = Schema("s", [parent, child])
        schema.add_foreign_key(ForeignKey("c", "p_id", "p", "id"))
        assert schema.join_columns("c", "p") == [("p_id", "id")]
        with pytest.raises(CatalogError):
            schema.add_foreign_key(ForeignKey("c", "missing", "p", "id"))

    def test_column_index_is_stable_and_unique(self, schema_only):
        seen = set()
        for tname in schema_only.table_names():
            for cname in schema_only.table(tname).column_names():
                idx = schema_only.column_index(tname, cname)
                assert idx not in seen
                seen.add(idx)
        assert len(seen) == schema_only.total_columns


class TestImdbSchema:
    def test_has_21_tables(self):
        assert len(imdb_schema()) == 21

    def test_balsa_extra_indexes_present(self):
        schema = imdb_schema()
        cc = schema.table("complete_cast")
        assert cc.has_index_on("subject_id")
        assert cc.has_index_on("status_id")

    def test_title_is_connected_to_movie_tables(self):
        schema = imdb_schema()
        edges = set(schema.join_graph_edges())
        for table in MOVIE_RELATED_TABLES:
            if table == "title":
                continue
            assert tuple(sorted((table, "title"))) in edges

    def test_every_fk_column_is_indexed(self):
        schema = imdb_schema()
        for fk in schema.foreign_keys:
            assert schema.table(fk.child_table).has_index_on(fk.child_column)


class TestStackSchema:
    def test_has_10_tables(self):
        assert len(stack_schema()) == 10

    def test_question_joins_site_and_user(self):
        schema = stack_schema()
        assert schema.join_columns("question", "site") == [("site_id", "id")]
        assert schema.join_columns("question", "so_user") == [("owner_user_id", "id")]


class TestDatagen:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = zipf_weights(10, skew=1.2)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)

    def test_zipf_choice_produces_skew(self):
        rng = np.random.default_rng(0)
        sample = zipf_choice(rng, np.arange(100), 20_000, skew=1.3)
        _, counts = np.unique(sample, return_counts=True)
        assert counts.max() > 5 * counts.mean()

    def test_primary_keys_dense(self):
        keys = primary_keys(5, start=3)
        assert keys.tolist() == [3, 4, 5, 6, 7]

    def test_foreign_keys_reference_parents(self):
        rng = np.random.default_rng(1)
        parents = primary_keys(50)
        fks = foreign_keys(rng, parents, 500, null_frac=0.1)
        non_null = fks[fks != NULL_SENTINEL]
        assert np.isin(non_null, parents).all()
        assert (fks == NULL_SENTINEL).mean() == pytest.approx(0.1, abs=0.05)

    def test_year_column_bounds_and_nulls(self):
        rng = np.random.default_rng(2)
        years = year_column(rng, 1000, low=1950, high=2020, null_frac=0.05)
        valid = years[years != NULL_SENTINEL]
        assert valid.min() >= 1950 and valid.max() <= 2020
        # recency bias: more movies after the midpoint than before
        assert (valid > 1985).mean() > 0.6

    def test_categorical_column_domain(self):
        rng = np.random.default_rng(3)
        col = categorical_column(rng, 4, 1000, start=1)
        assert set(np.unique(col)).issubset({1, 2, 3, 4})


class TestStatistics:
    def test_analyze_column_counts_nulls_and_distincts(self):
        values = np.array([1, 1, 2, 3, NULL_SENTINEL, NULL_SENTINEL], dtype=np.int64)
        stats = analyze_column("c", values, ColumnType.INTEGER)
        assert stats.row_count == 6
        assert stats.null_frac == pytest.approx(2 / 6)
        assert stats.n_distinct == 3

    def test_equality_selectivity_of_mcv(self):
        values = np.array([1] * 90 + [2] * 5 + [3] * 5, dtype=np.int64)
        stats = analyze_column("c", values, ColumnType.INTEGER)
        assert stats.equality_selectivity(1) == pytest.approx(0.9, abs=0.05)

    def test_range_selectivity_monotone(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1000, 5000)
        stats = analyze_column("c", values.astype(np.int64), ColumnType.INTEGER)
        sel_low = stats.range_selectivity("<", 100)
        sel_high = stats.range_selectivity("<", 900)
        assert 0.0 <= sel_low <= sel_high <= 1.0
        assert sel_high == pytest.approx(0.9, abs=0.1)

    def test_range_selectivity_rejects_bad_operator(self):
        stats = analyze_column("c", np.array([1, 2, 3], dtype=np.int64), ColumnType.INTEGER)
        with pytest.raises(CatalogError):
            stats.range_selectivity("=", 1)

    def test_analyze_table_page_count(self, imdb_db):
        table = imdb_db.schema.table("title")
        data = imdb_db.table_data("title")
        stats = analyze_table(table, data.columns)
        assert stats.row_count == data.row_count
        assert stats.page_count >= 1
        assert stats.column("production_year").n_distinct > 10

    def test_analyze_table_detects_length_mismatch(self, imdb_db):
        table = imdb_db.schema.table("kind_type")
        with pytest.raises(CatalogError):
            analyze_table(table, {"id": np.arange(3), "kind": np.arange(4)})


class TestGeneratedDatabases:
    def test_imdb_row_counts_scale(self, imdb_db):
        assert imdb_db.table_data("cast_info").row_count > imdb_db.table_data("title").row_count
        assert imdb_db.table_data("title").row_count >= 200

    def test_imdb_fk_integrity_title(self, imdb_db):
        titles = imdb_db.table_data("title").column("id")
        mk = imdb_db.table_data("movie_keyword").column("movie_id")
        assert np.isin(mk, titles).all()

    def test_imdb_dimension_values_match_pools(self, imdb_db):
        info_type = imdb_db.table_data("info_type")
        decoded = [info_type.decode("info", int(c)) for c in info_type.column("info")]
        assert "rating" in decoded and "genres" in decoded

    def test_generation_is_deterministic(self):
        from repro.catalog.imdb import generate_imdb

        a = generate_imdb(scale=0.25, seed=5)
        b = generate_imdb(scale=0.25, seed=5)
        assert np.array_equal(
            a.table_data("cast_info").column("movie_id"),
            b.table_data("cast_info").column("movie_id"),
        )

    def test_stack_fk_integrity(self, stack_db):
        questions = stack_db.table_data("question").column("id")
        answers = stack_db.table_data("answer").column("question_id")
        assert np.isin(answers, questions).all()
