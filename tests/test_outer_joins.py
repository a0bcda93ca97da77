"""Outer-join semantics and reorderability: both engines, planner, hints.

Satellite coverage for the outer-join refactor:

* **NULL-sentinel ambiguity** — NULL-extended join output must never be
  conflated with stored NULLs: stored NULL keys never match but still
  NULL-extend, ``IS NULL`` scan filters see only stored NULLs (the dialect
  applies WHERE filters below joins), and column aggregates drop
  NULL-extended rows while ``COUNT(*)`` keeps them.  Expectations are
  hand-computed from the raw stored codes with numpy — independent of every
  engine and of the fuzz oracle.
* **Reorderability** — enumeration (exhaustive, DP, greedy, GEQO) never emits
  a plan that reorders across an outer-join edge: the inner-only enumerators
  refuse outer queries outright, and every plan the planner or
  ``enumerate_join_trees`` produces carries the outer folds on top in syntax
  order with the nullable side as the right scan.  Hint sets naming an
  illegal order fail loudly with :class:`HintError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import PostgresConfig
from repro.errors import HintError, OptimizerError
from repro.executor.engine import create_engine
from repro.executor.operators import NULL_ROW_ID, gather_rows, take_rows
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import (
    DPEnumerator,
    enumerate_join_trees,
    left_deep_plan_from_order,
)
from repro.optimizer.geqo import GeqoEnumerator
from repro.optimizer.join_graph import JoinGraph
from repro.optimizer.planner import Planner
from repro.plans.hints import HintSet
from repro.plans.physical import AggregateNode, JoinKind, JoinNode, JoinType, ScanNode, SortNode
from repro.sql.binder import bind_sql
from tests.test_columnar import assert_engines_agree
from tests.test_executor import _tiny_database


def run_both(sql: str) -> list[tuple]:
    """Execute on both engines (fresh databases), assert equality, return rows."""
    db_row, db_col = _tiny_database(), _tiny_database()
    q_row = bind_sql(sql, db_row.schema, name="row")
    q_col = bind_sql(sql, db_col.schema, name="col")
    result_row = create_engine(db_row, kind="row").execute(q_row, Planner(db_row).plan(q_row))
    result_col = create_engine(db_col, kind="columnar").execute(q_col, Planner(db_col).plan(q_col))
    assert result_row.rows == result_col.rows, sql
    assert result_row.metrics.__dict__ == result_col.metrics.__dict__, sql
    assert result_row.execution_time_ms == result_col.execution_time_ms, sql
    return result_row.rows


OUTER_SQLS = [
    "SELECT COUNT(*) FROM parent AS p LEFT JOIN child AS c ON p.id = c.parent_id",
    "SELECT COUNT(*) FROM child AS c FULL OUTER JOIN link AS l ON c.parent_id = l.parent_id",
    "SELECT COUNT(*), MIN(c.kind) FROM parent AS p "
    "JOIN child AS c ON p.id = c.parent_id "
    "LEFT JOIN link AS l ON p.id = l.parent_id WHERE c.kind > 3",
    "SELECT p.category, COUNT(*) FROM parent AS p "
    "LEFT JOIN child AS c ON p.id = c.parent_id GROUP BY p.category",
]


# ---------------------------------------------------------------------------
# NULL-sentinel ambiguity (satellite: stored NULLs vs NULL-extended output)
# ---------------------------------------------------------------------------

class TestNullSentinelRules:
    def test_virtual_row_id_decodes_to_null_without_touching_storage(self):
        db = _tiny_database()
        data = db.table_data("child")
        before = data.column("parent_id").copy()
        row_ids = np.array([0, NULL_ROW_ID, 1], dtype=np.int64)
        values = gather_rows(data, "parent_id", row_ids)
        assert values[1] == NULL_SENTINEL
        assert values[0] == int(before[0]) and values[2] == int(before[1])
        # The virtual id never writes the sentinel into the table.
        assert np.array_equal(data.column("parent_id"), before)
        # Re-indexing keeps NULL-extended positions NULL-extended instead of
        # wrapping to the last element the way raw numpy indexing would.
        taken = take_rows(row_ids, np.array([1, 2, NULL_ROW_ID], dtype=np.int64))
        assert list(taken) == [NULL_ROW_ID, 1, NULL_ROW_ID]

    def test_stored_null_keys_never_match_but_still_null_extend(self):
        db = _tiny_database()
        parent_ids = db.table_data("child").column("parent_id")
        n_child = parent_ids.size
        n_stored_null = int((parent_ids == NULL_SENTINEL).sum())
        assert n_stored_null > 0, "fixture must be NULL-heavy"
        # Every child appears exactly once: non-NULL FKs match exactly one
        # parent id, stored-NULL FKs never match and NULL-extend instead.
        rows = run_both(
            "SELECT COUNT(*) FROM child AS c LEFT JOIN parent AS p ON c.parent_id = p.id"
        )
        assert rows == [(n_child,)]

    def test_is_null_filter_sees_only_stored_nulls(self):
        db = _tiny_database()
        parent_ids = db.table_data("child").column("parent_id")
        n_stored_null = int((parent_ids == NULL_SENTINEL).sum())
        sql = (
            "SELECT COUNT(*) FROM child AS c LEFT JOIN parent AS p ON c.parent_id = p.id "
            "WHERE c.parent_id IS {}NULL"
        )
        # The filter runs at scan level, below the join: IS NULL selects the
        # stored NULLs (which then NULL-extend), never the join's output NULLs.
        assert run_both(sql.format("")) == [(n_stored_null,)]
        assert run_both(sql.format("NOT ")) == [(int(parent_ids.size) - n_stored_null,)]

    def test_null_extended_rows_counted_by_star_but_not_by_column_aggregates(self):
        db = _tiny_database()
        child = db.table_data("child")
        parent = db.table_data("parent")
        parent_ids = child.column("parent_id")
        # Restrict the parent side so some non-NULL FKs also go unmatched.
        surviving = parent.column("id")[parent.column("score") > 5]
        matched = int(np.isin(parent_ids, surviving).sum())
        rows = run_both(
            "SELECT COUNT(*), COUNT(p.id), MIN(p.score) "
            "FROM child AS c LEFT JOIN parent AS p ON c.parent_id = p.id "
            "WHERE p.score > 5"
        )
        count_star, count_parent, min_score = rows[0]
        assert count_star == int(parent_ids.size)  # NULL-extended rows counted
        assert count_parent == matched  # ...but not by COUNT(p.id)
        assert min_score == int(parent.column("score")[parent.column("score") > 5].min())

    def test_full_join_unmatched_both_sides(self):
        db = _tiny_database()
        child_keys = db.table_data("child").column("parent_id")
        link_keys = db.table_data("link").column("parent_id")
        child_real = child_keys[child_keys != NULL_SENTINEL]
        link_real = link_keys[link_keys != NULL_SENTINEL]
        matches = int(sum((child_real == key).sum() for key in link_real))
        unmatched_child = int((~np.isin(child_keys, link_real)).sum())
        unmatched_link = int((~np.isin(link_keys, child_real)).sum())
        rows = run_both(
            "SELECT COUNT(*) FROM child AS c FULL OUTER JOIN link AS l "
            "ON c.parent_id = l.parent_id"
        )
        assert rows == [(matches + unmatched_child + unmatched_link,)]

    def test_chained_outer_joins_re_extend_nullable_keys(self):
        # A NULL-extended mk-style alias carries sentinel keys into the next
        # fold, which must simply re-extend (never match, never wrap).
        rows = run_both(
            "SELECT COUNT(*), COUNT(l.id) FROM parent AS p "
            "LEFT JOIN child AS c ON p.id = c.parent_id "
            "LEFT JOIN link AS l ON c.parent_id = l.parent_id"
        )
        assert rows[0][0] >= rows[0][1]

    def test_engines_agree_on_every_outer_plan_shape(self):
        assert_engines_agree(_tiny_database, OUTER_SQLS)


# ---------------------------------------------------------------------------
# Reorderability (satellite: outer edges pin operand order)
# ---------------------------------------------------------------------------

OUTER_QUERY = (
    "SELECT COUNT(*) FROM parent AS p "
    "JOIN child AS c ON p.id = c.parent_id "
    "LEFT JOIN link AS l ON p.id = l.parent_id"
)


def strip_decorations(plan):
    while isinstance(plan, (SortNode, AggregateNode)):
        plan = plan.child
    return plan


def assert_outer_folds_pinned(plan, query) -> None:
    """Outer folds sit on top in syntax order, nullable side on the right."""
    node = strip_decorations(plan)
    for edge in reversed(query.outer_edges):
        assert isinstance(node, JoinNode), "outer fold missing"
        expected = JoinKind.LEFT if edge.join_type == "left" else JoinKind.FULL
        assert node.join_kind is expected
        assert isinstance(node.right, ScanNode)
        assert node.right.alias == edge.nullable_alias
        node = node.left
    assert node.aliases == frozenset(query.core_aliases)
    for sub in node.walk():
        if isinstance(sub, JoinNode):
            assert sub.join_kind is JoinKind.INNER


class TestReorderability:
    def test_inner_only_enumerators_refuse_outer_queries(self):
        db = _tiny_database()
        query = bind_sql(OUTER_QUERY, db.schema)
        cost_model = CostModel(db)
        with pytest.raises(OptimizerError, match="only enumerates inner joins"):
            DPEnumerator(cost_model).plan(query)
        with pytest.raises(OptimizerError, match="only enumerates inner joins"):
            left_deep_plan_from_order(query, cost_model, ["p", "c", "l"])
        with pytest.raises(OptimizerError, match="only enumerates inner joins"):
            GeqoEnumerator(cost_model).plan(query)
        with pytest.raises(OptimizerError, match="only enumerates inner joins"):
            JoinGraph(query)
        assert JoinGraph(query.core_query()).aliases == query.core_aliases

    def test_every_enumerated_shape_pins_the_outer_edges(self):
        db = _tiny_database()
        query = bind_sql(
            "SELECT COUNT(*) FROM parent AS p "
            "JOIN child AS c ON p.id = c.parent_id "
            "LEFT JOIN link AS l ON p.id = l.parent_id "
            "FULL OUTER JOIN parent AS q ON c.parent_id = q.id",
            db.schema,
        )
        plans = list(enumerate_join_trees(query, CostModel(db)))
        assert plans, "enumeration must still cover the inner core"
        for plan in plans:
            assert_outer_folds_pinned(plan, query)

    def test_planner_pins_outer_edges_across_strategies(self):
        for config in (None, PostgresConfig(geqo_threshold=2)):
            db = _tiny_database()
            query = bind_sql(OUTER_QUERY, db.schema, name=f"cfg_{config is None}")
            planner = Planner(db, config=config)
            result = planner.plan_with_info(query)
            assert_outer_folds_pinned(result.plan, query)
            if config is not None:
                # geqo_threshold=2 routes the 2-relation inner core to GEQO;
                # the outer edge stays pinned regardless of core strategy.
                assert result.strategy == "geqo"

    def test_exact_order_hint_across_outer_edge_fails_loudly(self):
        db = _tiny_database()
        query = bind_sql(OUTER_QUERY, db.schema)
        planner = Planner(db)
        illegal = HintSet.from_join_order(["l", "p", "c"], name="outer-first")
        with pytest.raises(HintError, match="outer-join edge"):
            planner.plan(query, illegal)
        legal = HintSet.from_join_order(["c", "p", "l"], name="core-then-outer")
        plan = planner.plan(query, legal)
        assert_outer_folds_pinned(plan, query)

    def test_prefix_hint_naming_outer_alias_fails_loudly(self):
        db = _tiny_database()
        query = bind_sql(OUTER_QUERY, db.schema)
        planner = Planner(db)
        with pytest.raises(HintError, match="outer-join aliases"):
            planner.plan(query, HintSet.from_leading_prefix(["l"], name="bad-prefix"))
        plan = planner.plan(query, HintSet.from_leading_prefix(["c"], name="core-prefix"))
        assert_outer_folds_pinned(plan, query)

    def test_full_join_rejects_nested_loop_hint(self):
        db = _tiny_database()
        query = bind_sql(
            "SELECT COUNT(*) FROM parent AS p FULL OUTER JOIN child AS c ON p.id = c.parent_id",
            db.schema,
        )
        planner = Planner(db)
        forced = HintSet(
            join_methods={frozenset({"p", "c"}): JoinType.NESTED_LOOP}, name="nl-full"
        )
        with pytest.raises(HintError, match="not supported for FULL JOIN"):
            planner.plan(query, forced)
        # LEFT joins may nested-loop; the plan keeps kind and method.
        left_query = bind_sql(
            "SELECT COUNT(*) FROM parent AS p LEFT JOIN child AS c ON p.id = c.parent_id",
            db.schema,
        )
        plan = strip_decorations(
            planner.plan(
                left_query,
                HintSet(join_methods={frozenset({"p", "c"}): JoinType.NESTED_LOOP}, name="nl"),
            )
        )
        assert isinstance(plan, JoinNode)
        assert plan.join_kind is JoinKind.LEFT
        assert plan.join_type is JoinType.NESTED_LOOP
