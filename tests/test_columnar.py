"""Row-vs-columnar engine equivalence: the property suite behind docs/EXECUTOR.md.

The columnar engine is only allowed to be *faster* than the row engine — never
different.  Every test here executes identical plans through both engines (on
independently built databases, so buffer-pool state never leaks between them)
and asserts byte-equivalence of

* the result rows (values and order),
* per-node actual cardinalities,
* every field of the accumulated :class:`OperatorMetrics`,
* the simulated execution time (exact float equality: both engines own a
  TimingModel seeded identically and must draw the same noise sequence),
* timeout/error outcomes.

Covered shapes: every join-tree shape of small queries (left-deep, bushy,
zigzag), index/bitmap/seq scans, index nested loops with NULL probe keys,
multi-predicate joins with post-join filters, cross products, sorts, group-by
aggregation, projection with LIMIT — plus the edge cases the row engine's
history says matter: empty tables, all-NULL join keys, and a join predicate
ahead of the index-nestloop probe.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.imdb import generate_imdb
from repro.catalog.stack import generate_stack
from repro.catalog.schema import Column, Index, Schema, Table
from repro.catalog.statistics import NULL_SENTINEL
from repro.config import ENGINE_KINDS, SIMULATION_CONFIG
from repro.errors import ExecutionError
from repro.executor.columnar import ColumnarExecutionEngine
from repro.executor.engine import ExecutionEngine, create_engine
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import enumerate_join_trees
from repro.optimizer.planner import Planner
from repro.plans.hints import NO_HINTS, HintSet, OperatorToggles
from repro.sql.binder import bind_sql
from repro.storage.database import Database
from repro.storage.table_data import TableData
from repro.workloads import build_job_workload, build_stack_workload

from tests.test_executor import _tiny_database, oracle_tuples


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

def assert_results_equal(row_result, col_result, row_plan, col_plan, context=""):
    """Byte-equivalence of two ExecutionResults (plans walked for node rows)."""
    assert row_result.rows == col_result.rows, context
    assert row_result.row_count == col_result.row_count, context
    assert row_result.timed_out == col_result.timed_out, context
    assert row_result.error == col_result.error, context
    assert row_result.metrics.__dict__ == col_result.metrics.__dict__, context
    # Exact equality: identical metrics through identically seeded noise.
    assert row_result.execution_time_ms == col_result.execution_time_ms, context
    row_nodes = [
        row_result.node_actual_rows[id(n)]
        for n in row_plan.walk()
        if id(n) in row_result.node_actual_rows
    ]
    col_nodes = [
        col_result.node_actual_rows[id(n)]
        for n in col_plan.walk()
        if id(n) in col_result.node_actual_rows
    ]
    assert row_nodes == col_nodes, context


def assert_engines_agree(db_factory, sqls, hints=NO_HINTS, allow_cross_products=False):
    """Enumerate every join-tree shape of each query and compare both engines.

    ``db_factory`` must build a *fresh* database per call: the two engines may
    not share a buffer pool, or cache state from one would leak into the
    other's timing.
    """
    compared = 0
    for sql in sqls:
        db_row, db_col = db_factory(), db_factory()
        engine_row = create_engine(db_row, kind="row")
        engine_col = create_engine(db_col, kind="columnar")
        q_row = bind_sql(sql, db_row.schema, name="row")
        q_col = bind_sql(sql, db_col.schema, name="col")
        plans_row = list(
            enumerate_join_trees(
                q_row, CostModel(db_row), hints, allow_cross_products=allow_cross_products
            )
        )
        plans_col = list(
            enumerate_join_trees(
                q_col, CostModel(db_col), hints, allow_cross_products=allow_cross_products
            )
        )
        assert len(plans_row) == len(plans_col)
        for plan_row, plan_col in zip(plans_row, plans_col):
            result_row = engine_row.execute(q_row, plan_row)
            result_col = engine_col.execute(q_col, plan_col)
            assert_results_equal(
                result_row, result_col, plan_row, plan_col, context=sql
            )
            compared += 1
    assert compared > 0


# ---------------------------------------------------------------------------
# Exhaustive plan shapes on the NULL-heavy oracle database
# ---------------------------------------------------------------------------

TINY_SQLS = [
    "SELECT COUNT(*) FROM parent AS p, child AS c WHERE p.id = c.parent_id",
    # NULLs on both sides of the equi-join (child and link FKs are nullable).
    "SELECT COUNT(*) FROM child AS c, link AS l WHERE c.parent_id = l.parent_id",
    "SELECT COUNT(*) FROM parent AS p, child AS c, link AS l "
    "WHERE p.id = c.parent_id AND p.id = l.parent_id",
    "SELECT COUNT(*) FROM parent AS p, child AS c "
    "WHERE p.id = c.parent_id AND c.kind > 3 AND p.category = 1",
    "SELECT COUNT(*) FROM child AS c WHERE c.kind < 5",
    "SELECT COUNT(*) FROM child AS c WHERE c.parent_id IS NULL",
    "SELECT p.category, COUNT(*) FROM parent AS p, child AS c "
    "WHERE p.id = c.parent_id GROUP BY p.category",
    "SELECT c.kind FROM parent AS p, child AS c "
    "WHERE p.id = c.parent_id AND p.score > 2 ORDER BY c.kind LIMIT 7",
    "SELECT p.id, c.id FROM parent AS p, child AS c "
    "WHERE p.id = c.parent_id ORDER BY p.id",
]


class TestTinyPlanShapes:
    def test_every_join_tree_shape_is_equivalent(self):
        assert_engines_agree(_tiny_database, TINY_SQLS)

    def test_forced_nestloop_probes_are_equivalent(self):
        hints = HintSet(toggles=OperatorToggles(hashjoin=False, mergejoin=False))
        assert_engines_agree(
            _tiny_database,
            [
                "SELECT COUNT(*) FROM link AS l, child AS c WHERE l.parent_id = c.parent_id",
                "SELECT COUNT(*) FROM parent AS p, child AS c WHERE p.id = c.parent_id",
            ],
            hints=hints,
        )

    def test_cross_products_are_equivalent(self):
        assert_engines_agree(
            _tiny_database,
            ["SELECT COUNT(*) FROM parent AS p, child AS c"],
            allow_cross_products=True,
        )

    def test_columnar_matches_nested_loop_oracle(self):
        """Belt and braces: the columnar engine against the brute-force oracle."""
        db = _tiny_database()
        engine = create_engine(db, kind="columnar")
        planner = Planner(db)
        for sql in TINY_SQLS[:4]:
            query = bind_sql(sql, db.schema, name="oracle")
            plan = planner.plan(query)
            count = int(engine.execute(query, plan).rows[0][0])
            assert count == len(oracle_tuples(db, query)), sql


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def _edge_case_database(child_rows: np.ndarray | None, parent_rows: int) -> Database:
    """Two-table database with a controllable (possibly empty / all-NULL) FK."""
    parent = Table("parent", columns=[Column("id"), Column("score")])
    child = Table(
        "child",
        columns=[Column("id"), Column("parent_id")],
        indexes=[Index(table="child", column="parent_id")],
    )
    schema = Schema("edge", tables=[parent, child])
    if child_rows is None:
        child_rows = np.empty(0, dtype=np.int64)
    n_child = int(child_rows.size)
    tables = {
        "parent": TableData(
            table=parent,
            columns={
                "id": np.arange(1, parent_rows + 1, dtype=np.int64),
                "score": (np.arange(parent_rows, dtype=np.int64) * 7) % 13,
            },
        ),
        "child": TableData(
            table=child,
            columns={
                "id": np.arange(1, n_child + 1, dtype=np.int64),
                "parent_id": child_rows,
            },
        ),
    }
    return Database(schema=schema, tables=tables, config=SIMULATION_CONFIG)


class TestEdgeCases:
    def test_empty_table_scan_and_join(self):
        sqls = [
            "SELECT COUNT(*) FROM child AS c",
            "SELECT COUNT(*) FROM parent AS p, child AS c WHERE p.id = c.parent_id",
            "SELECT COUNT(*) FROM parent AS p, child AS c "
            "WHERE p.id = c.parent_id AND p.score > 3",
        ]
        assert_engines_agree(lambda: _edge_case_database(None, 8), sqls)

    def test_all_null_key_join_is_empty_in_both_engines(self):
        all_null = np.full(10, NULL_SENTINEL, dtype=np.int64)
        sql = "SELECT COUNT(*) FROM parent AS p, child AS c WHERE p.id = c.parent_id"
        assert_engines_agree(lambda: _edge_case_database(all_null, 8), [sql])
        db = _edge_case_database(all_null, 8)
        engine = create_engine(db, kind="columnar")
        query = bind_sql(sql, db.schema, name="allnull")
        plan = Planner(db).plan(query)
        assert engine.execute(query, plan).rows == [(0,)]

    def test_join_predicate_ahead_of_probe_is_equivalent(self):
        """The PR-3 regression shape: probe runs on predicates[1], and the
        unenforced predicates[0] must survive as a post-join filter in both
        engines."""

        def build() -> Database:
            src = Table("src", columns=[Column("id"), Column("x"), Column("grp")])
            item = Table(
                "item",
                columns=[Column("id"), Column("grp"), Column("val")],
                indexes=[Index(table="item", column="grp")],
            )
            schema = Schema("probe-order", tables=[src, item])
            return Database(
                schema=schema,
                tables={
                    "src": TableData(
                        table=src,
                        columns={
                            "id": np.array([1, 2, 3, 4, 5], dtype=np.int64),
                            "x": np.array([10, 30, 10, 1, 10], dtype=np.int64),
                            "grp": np.array([1, 1, 2, 2, NULL_SENTINEL], dtype=np.int64),
                        },
                    ),
                    "item": TableData(
                        table=item,
                        columns={
                            "id": np.array([1, 2, 3, 4], dtype=np.int64),
                            "grp": np.array([1, 1, 2, NULL_SENTINEL], dtype=np.int64),
                            "val": np.array([10, 30, 10, 10], dtype=np.int64),
                        },
                    ),
                },
                config=SIMULATION_CONFIG,
            )

        sql = "SELECT COUNT(*) FROM src AS s, item AS i WHERE s.x = i.val AND s.grp = i.grp"
        assert_engines_agree(build, [sql])
        hints = HintSet(toggles=OperatorToggles(hashjoin=False, mergejoin=False))
        assert_engines_agree(build, [sql], hints=hints)
        # And both agree with the brute-force truth.
        db = build()
        query = bind_sql(sql, db.schema, name="probe")
        expected = len(oracle_tuples(db, query))
        for kind in ENGINE_KINDS:
            db_k = build()
            engine = create_engine(db_k, kind=kind)
            plan = Planner(db_k).plan(query, hints)
            assert int(engine.execute(query, plan).rows[0][0]) == expected


# ---------------------------------------------------------------------------
# Real workloads: JOB on IMDB, Stack
# ---------------------------------------------------------------------------

WORKLOAD_SCALE = 0.2


class TestWorkloadEquivalence:
    @pytest.mark.parametrize(
        "generate,build_workload,seed",
        [
            (generate_imdb, build_job_workload, 7),
            (generate_stack, build_stack_workload, 11),
        ],
        ids=["imdb-job", "stack"],
    )
    def test_planner_plans_are_equivalent(self, generate, build_workload, seed):
        db_row = generate(scale=WORKLOAD_SCALE, seed=seed, config=SIMULATION_CONFIG)
        db_col = generate(scale=WORKLOAD_SCALE, seed=seed, config=SIMULATION_CONFIG)
        engine_row = create_engine(db_row, kind="row")
        engine_col = create_engine(db_col, kind="columnar")
        planner_row = Planner(db_row)
        planner_col = Planner(db_col)
        workload = build_workload(db_row.schema)
        workload_col = build_workload(db_col.schema)
        # A deterministic sample keeps the suite fast while touching many
        # query shapes; the benchmark harness covers the full workload.
        sample = list(range(0, len(workload.queries), 7))
        for position in sample:
            query_row = workload.queries[position]
            query_col = workload_col.queries[position]
            plan_row = planner_row.plan(query_row.bound)
            plan_col = planner_col.plan(query_col.bound)
            result_row = engine_row.execute(query_row.bound, plan_row)
            result_col = engine_col.execute(query_col.bound, plan_col)
            assert_results_equal(
                result_row, result_col, plan_row, plan_col, context=query_row.query_id
            )


# ---------------------------------------------------------------------------
# Hypothesis: random tables, random filters, every join-tree shape
# ---------------------------------------------------------------------------

@st.composite
def random_database_and_filters(draw):
    """A random two-table database plus random filter literals.

    The FK column mixes genuine matches, dangling references and NULLs so the
    join exercises duplicate keys, misses and SQL NULL semantics at once.
    """
    n_parent = draw(st.integers(min_value=1, max_value=12))
    n_child = draw(st.integers(min_value=0, max_value=25))
    fk_values = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=n_parent),
                st.integers(min_value=n_parent + 1, max_value=n_parent + 3),
                st.just(NULL_SENTINEL),
            ),
            min_size=n_child,
            max_size=n_child,
        )
    )
    vals = draw(
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=6), st.just(NULL_SENTINEL)),
            min_size=n_child,
            max_size=n_child,
        )
    )
    score_cutoff = draw(st.integers(min_value=0, max_value=6))
    val_op = draw(st.sampled_from(["=", ">", "<=", "!="]))
    val_literal = draw(st.integers(min_value=0, max_value=6))

    parent = Table("parent", columns=[Column("id"), Column("score")])
    child = Table(
        "child",
        columns=[Column("id"), Column("parent_id"), Column("val")],
        indexes=[Index(table="child", column="parent_id")],
    )
    schema = Schema("hypo", tables=[parent, child])
    db_builder = lambda: Database(  # noqa: E731 - rebuilt per engine
        schema=schema,
        tables={
            "parent": TableData(
                table=parent,
                columns={
                    "id": np.arange(1, n_parent + 1, dtype=np.int64),
                    "score": (np.arange(n_parent, dtype=np.int64) * 5) % 7,
                },
            ),
            "child": TableData(
                table=child,
                columns={
                    "id": np.arange(1, n_child + 1, dtype=np.int64),
                    "parent_id": np.asarray(fk_values, dtype=np.int64),
                    "val": np.asarray(vals, dtype=np.int64),
                },
            ),
        },
        config=SIMULATION_CONFIG,
    )
    sql = (
        "SELECT COUNT(*) FROM parent AS p, child AS c "
        f"WHERE p.id = c.parent_id AND p.score > {score_cutoff} "
        f"AND c.val {val_op} {val_literal}"
    )
    return db_builder, sql


class TestHypothesisEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(random_database_and_filters())
    def test_random_tables_all_plan_shapes(self, case):
        db_builder, sql = case
        assert_engines_agree(db_builder, [sql])

    @settings(max_examples=10, deadline=None)
    @given(random_database_and_filters())
    def test_random_tables_match_oracle(self, case):
        db_builder, sql = case
        db = db_builder()
        query = bind_sql(sql, db.schema, name="hypo")
        expected = len(oracle_tuples(db, query))
        engine = create_engine(db, kind="columnar")
        plan = Planner(db).plan(query)
        assert int(engine.execute(query, plan).rows[0][0]) == expected


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_engine_kinds_constant(self):
        assert ENGINE_KINDS == ("columnar", "row")

    def test_create_engine_kinds(self):
        db = _tiny_database()
        assert isinstance(create_engine(db, kind="columnar"), ColumnarExecutionEngine)
        row = create_engine(db, kind="row")
        assert isinstance(row, ExecutionEngine)
        assert not isinstance(row, ColumnarExecutionEngine)
        assert create_engine(db).kind == "columnar"
        assert row.kind == "row"

    def test_columnar_engine_is_the_row_engine_on_another_representation(self):
        """Charge parity by construction: no operator or plan-walk override to drift."""
        defined = {name for name in vars(ColumnarExecutionEngine) if not name.startswith("__")}
        assert defined == {"kind", "batch_type"}

    def test_create_engine_rejects_unknown_kind(self):
        db = _tiny_database()
        with pytest.raises(ExecutionError, match="unknown engine kind"):
            create_engine(db, kind="gpu")

    def test_environment_engine_selection(self):
        from repro.lqo.base import LQOEnvironment

        db = _tiny_database()
        assert isinstance(LQOEnvironment(db).engine, ColumnarExecutionEngine)
        assert not isinstance(
            LQOEnvironment(_tiny_database(), engine="row").engine, ColumnarExecutionEngine
        )

    def test_execution_protocol_engine_selection(self):
        from repro.core.execution_protocol import ExecutionProtocol

        assert isinstance(
            ExecutionProtocol(_tiny_database()).engine, ColumnarExecutionEngine
        )
        protocol = ExecutionProtocol(_tiny_database(), engine="row")
        assert not isinstance(protocol.engine, ColumnarExecutionEngine)

    def test_experiment_config_engine_env_default(self, monkeypatch):
        from repro.core.experiment import ExperimentConfig

        assert ExperimentConfig().engine == "columnar"
        monkeypatch.setenv("REPRO_ENGINE", "row")
        assert ExperimentConfig().engine == "row"
        # The engine participates in the config fingerprint (conservative:
        # stored results never silently cross engine kinds).
        monkeypatch.delenv("REPRO_ENGINE")
        assert ExperimentConfig(engine="row").fingerprint() != ExperimentConfig(
            engine="columnar"
        ).fingerprint()

    def test_experiment_runner_timings_identical_across_engines(self):
        """End-to-end: the full measurement pipeline (planner, protocol,
        deterministic timing) reports identical numbers under both engines."""
        from repro.core.experiment import ExperimentConfig, ExperimentRunner

        def run(kind: str):
            db = generate_imdb(scale=0.1, seed=3, config=SIMULATION_CONFIG)
            workload = build_job_workload(db.schema)
            runner = ExperimentRunner(
                db,
                workload,
                experiment_config=ExperimentConfig(
                    deterministic_timing=True, engine=kind
                ),
            )
            result = runner.run_postgres_only(workload.queries[:6])
            return [
                (
                    t.query_id,
                    t.inference_time_ms,
                    t.planning_time_ms,
                    t.execution_time_ms,
                    t.timed_out,
                )
                for t in result.timings
            ]

        assert run("row") == run("columnar")
