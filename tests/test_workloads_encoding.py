"""Tests for the workload generators and the query/plan encoders."""

import numpy as np
import pytest

from repro.encoding.featurizers import ENCODING_SPECS, featurizer_for, table1_rows
from repro.encoding.plan_encoding import PlanTreeEncoder
from repro.encoding.query_encoding import QueryEncoder
from repro.errors import EncodingError, WorkloadError
from repro.optimizer.planner import Planner
from repro.sql.binder import bind_sql
from repro.storage.table_data import TableData
from repro.workloads import build_ext_job_workload
from repro.workloads.job import JOB_FAMILY_SIZES
from repro.workloads.stack import STACK_VARIANTS_PER_FAMILY


class TestJobWorkload:
    def test_113_queries_in_33_families(self, job_workload):
        assert len(job_workload) == 113
        assert len(job_workload.family_ids()) == 33
        assert sum(JOB_FAMILY_SIZES.values()) == 113

    def test_family_sizes_match_spec(self, job_workload):
        families = job_workload.families()
        for family, queries in families.items():
            assert len(queries) == JOB_FAMILY_SIZES[family]

    def test_variants_share_joins_but_differ_in_filters(self, job_workload):
        family = job_workload.families()["2"]
        joins = {tuple(sorted(str(j) for j in q.bound.joins)) for q in family}
        assert len(joins) == 1
        filters = {tuple(sorted(str(f) for f in q.bound.filters)) for q in family}
        assert len(filters) > 1

    def test_all_queries_connected(self, job_workload):
        assert all(q.bound.is_connected() for q in job_workload)

    def test_join_count_range_matches_job(self, job_workload):
        joins = [q.num_joins for q in job_workload]
        assert min(joins) == 3
        assert max(joins) >= 14  # template 29 is the largest, as in JOB

    def test_largest_query_is_family_29(self, job_workload):
        largest = max(job_workload, key=lambda q: q.num_relations)
        assert largest.family == "29"
        assert largest.num_relations == 17

    def test_queries_executable(self, imdb_db, job_workload):
        """A few representative queries plan and execute without errors."""
        from repro.executor.engine import ExecutionEngine

        planner = Planner(imdb_db)
        engine = ExecutionEngine(imdb_db)
        for qid in ("1a", "6b", "17a", "32a"):
            query = job_workload.by_id(qid)
            result = engine.execute(query.bound, planner.plan(query.bound))
            assert result.error is None

    def test_subset_and_lookup(self, job_workload):
        subset = job_workload.subset(["1a", "2a"])
        assert len(subset) == 2
        with pytest.raises(WorkloadError):
            job_workload.subset(["nonexistent"])
        with pytest.raises(WorkloadError):
            job_workload.by_id("999z")


class TestStackAndExtJob:
    def test_stack_family_structure(self, stack_workload):
        assert len(stack_workload) == 14 * STACK_VARIANTS_PER_FAMILY
        assert len(stack_workload.family_ids()) == 14
        assert "q9" not in stack_workload.family_ids()
        assert "q10" not in stack_workload.family_ids()

    def test_stack_queries_connected_and_small(self, stack_workload):
        assert all(q.bound.is_connected() for q in stack_workload)
        assert max(q.num_joins for q in stack_workload) <= 6

    def test_ext_job_has_group_or_order_by(self, imdb_db):
        ext = build_ext_job_workload(imdb_db.schema)
        assert len(ext) == 24
        for query in ext:
            statement = query.bound.statement
            assert statement.group_by or statement.order_by


class TestQueryEncoder:
    def test_encoding_size_and_determinism(self, imdb_db, job_workload):
        encoder = QueryEncoder(imdb_db)
        query = job_workload.by_id("1a").bound
        first = encoder.encode_vector(query)
        second = encoder.encode_vector(query)
        assert first.shape == (encoder.encoding_size,)
        assert np.array_equal(first, second)

    def test_variants_of_same_family_differ(self, imdb_db, job_workload):
        encoder = QueryEncoder(imdb_db)
        a = encoder.encode_vector(job_workload.by_id("2a").bound)
        b = encoder.encode_vector(job_workload.by_id("2b").bound)
        assert not np.array_equal(a, b)

    def test_different_families_have_different_presence(self, imdb_db, job_workload):
        encoder = QueryEncoder(imdb_db)
        a = encoder.encode(job_workload.by_id("2a").bound)
        b = encoder.encode(job_workload.by_id("7a").bound)
        assert not np.array_equal(a.table_presence, b.table_presence)

    def test_selectivities_in_unit_interval(self, imdb_db, job_workload):
        encoder = QueryEncoder(imdb_db)
        encoding = encoder.encode(job_workload.by_id("22a").bound)
        assert np.all(encoding.filter_selectivity >= 0.0)
        assert np.all(encoding.filter_selectivity <= 1.0)
        assert np.all(encoding.filter_values >= 0.0)
        assert np.all(encoding.filter_values <= 1.0)

    def test_adjacency_reflects_joins(self, imdb_db, job_workload):
        encoder = QueryEncoder(imdb_db)
        encoding = encoder.encode(job_workload.by_id("1a").bound)
        assert encoding.join_adjacency.sum() == len(job_workload.by_id("1a").bound.joins)

    def test_rejects_query_from_other_schema(self, imdb_db, stack_workload):
        encoder = QueryEncoder(imdb_db)
        with pytest.raises(EncodingError):
            encoder.encode(stack_workload.queries[0].bound)

    def test_a_literal_the_column_cannot_encode_scales_to_mid_range(self, imdb_db, monkeypatch):
        encoder = QueryEncoder(imdb_db)
        sql = "SELECT COUNT(*) FROM title AS t WHERE t.production_year = {}"
        known, unknown = (bind_sql(sql.format(literal), imdb_db.schema) for literal in ("2005", "'soon'"))
        assert encoder._scaled_literal(known, known.filters[0]) != 0.5
        assert encoder._scaled_literal(unknown, unknown.filters[0]) == 0.5

        def broken(self, name, value):
            raise TypeError("a bug in the encoder, not an unknown literal")

        monkeypatch.setattr(TableData, "encode", broken)
        with pytest.raises(TypeError, match="a bug"):
            encoder._scaled_literal(known, known.filters[0])


class TestPlanEncoder:
    def test_node_feature_size_consistent(self, imdb_db, job_workload):
        planner = Planner(imdb_db)
        encoder = PlanTreeEncoder(imdb_db.schema)
        plan = planner.plan(job_workload.by_id("3a").bound)
        tree = encoder.encode(plan)
        matrix = tree.all_features()
        assert matrix.shape[1] == encoder.node_feature_size
        assert tree.node_count() == matrix.shape[0]

    def test_pooled_vector_fixed_size(self, imdb_db, job_workload):
        planner = Planner(imdb_db)
        encoder = PlanTreeEncoder(imdb_db.schema)
        sizes = set()
        for qid in ("1a", "17a", "29a"):
            plan = planner.plan(job_workload.by_id(qid).bound)
            sizes.add(encoder.pooled_vector(plan).shape)
        assert sizes == {(encoder.pooled_size,)}

    def test_different_plans_encode_differently(self, imdb_db, job_workload):
        from repro.optimizer.enumeration import left_deep_plan_from_order

        planner = Planner(imdb_db)
        encoder = PlanTreeEncoder(imdb_db.schema)
        query = job_workload.by_id("2a").bound
        a = encoder.pooled_vector(planner.plan(query))
        b = encoder.pooled_vector(
            left_deep_plan_from_order(query, planner.cost_model, list(reversed(query.aliases)))
        )
        assert not np.array_equal(a, b)

    def test_table_identity_optional(self, imdb_db, job_workload):
        with_id = PlanTreeEncoder(imdb_db.schema, include_table_identity=True)
        without_id = PlanTreeEncoder(imdb_db.schema, include_table_identity=False)
        assert with_id.node_feature_size > without_id.node_feature_size


class TestFeaturizers:
    def test_table1_rows_cover_all_methods(self):
        rows = table1_rows()
        assert [row["LQO"] for row in rows] == [
            "Neo", "RTOS", "Bao", "Balsa", "Lero", "LEON", "LOGER", "HybridQO",
        ]

    def test_bao_and_lero_have_no_query_encoding(self):
        assert not ENCODING_SPECS["bao"].uses_query_encoding
        assert not ENCODING_SPECS["lero"].uses_query_encoding
        assert ENCODING_SPECS["neo"].uses_query_encoding

    def test_ltr_methods(self):
        assert ENCODING_SPECS["lero"].ml_model == "LTR"
        assert ENCODING_SPECS["leon"].ml_model == "LTR"
        assert ENCODING_SPECS["neo"].ml_model == "Regression"

    def test_featurizer_for_unknown_method(self):
        with pytest.raises(EncodingError):
            featurizer_for("not-a-method")
