"""Explicit ``JOIN ... ON`` queries over stored NULLs, through every planner path.

The dialect has inner joins only; NULLs come from the data.  On the NULL-heavy
tiny database (``child.parent_id``, ``link.parent_id`` and ``child.kind`` are
nullable) this suite checks:

* **Every planner strategy** — dynamic programming, GEQO, the FROM order of
  ``join_collapse_limit = 1``, an exact join-order hint and a leading-prefix
  hint each plan one grouped three-way join whose keys are NULL on both sides;
  both engines return the brute-force oracle's rows, byte-identically.
* **Stored NULL keys** — a NULL key never joins, under each join method forced
  onto keys that are NULL on both sides too, and the column aggregates skip
  stored NULLs while ``COUNT(*)`` counts their rows.  Expectations are computed
  from the stored codes with numpy, independent of every engine and oracle.
* **Hints** — every exact join order is honoured and returns the same rows;
  hints naming an alias the query lacks, or repeating one, are refused before
  the plan cache is touched.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import PostgresConfig
from repro.errors import HintError
from repro.executor.engine import create_engine
from repro.optimizer.planner import Planner
from repro.plans.hints import NO_HINTS, HintSet
from repro.plans.physical import JoinType, plan_join_nodes
from repro.plans.properties import join_order_of
from repro.simclock import (
    STRATEGY_COLLAPSED,
    STRATEGY_DP,
    STRATEGY_FORCED,
    STRATEGY_GEQO,
    STRATEGY_GREEDY,
)
from repro.sql.binder import bind_sql
from tests.test_columnar import assert_results_equal
from tests.test_executor import _tiny_database
from tests.test_fuzz_engines import oracle_rows

#: Three relations joined on keys that are NULL on both sides (child to link),
#: a filter, and a GROUP BY with column aggregates over a nullable column.
GROUPED_SQL = (
    "SELECT p.category, COUNT(*), COUNT(c.kind), MIN(l.weight) FROM parent AS p "
    "JOIN child AS c ON p.id = c.parent_id "
    "JOIN link AS l ON c.parent_id = l.parent_id "
    "WHERE p.score > 10 GROUP BY p.category"
)


def run_both(sql: str, config: PostgresConfig | None = None, hints: HintSet = NO_HINTS):
    """Plan and execute on both engines (fresh databases); assert they agree.

    Returns the row engine's planner result and execution result."""
    db_row, db_col = _tiny_database(), _tiny_database()
    q_row = bind_sql(sql, db_row.schema, name="row")
    q_col = bind_sql(sql, db_col.schema, name="col")
    planned_row = Planner(db_row, config=config).plan_with_info(q_row, hints)
    planned_col = Planner(db_col, config=config).plan_with_info(q_col, hints)
    result_row = create_engine(db_row, kind="row").execute(q_row, planned_row.plan)
    result_col = create_engine(db_col, kind="columnar").execute(q_col, planned_col.plan)
    assert_results_equal(result_row, result_col, planned_row.plan, planned_col.plan, context=sql)
    assert result_row.succeeded, result_row.error
    return planned_row, result_row


def expected_rows(sql: str) -> list[tuple]:
    db = _tiny_database()
    return oracle_rows(db, bind_sql(sql, db.schema))


class TestEveryPlannerStrategy:
    @pytest.mark.parametrize(
        "config, hints, strategy, leading",
        [
            (None, NO_HINTS, STRATEGY_DP, None),
            (PostgresConfig(geqo_threshold=2), NO_HINTS, STRATEGY_GEQO, None),
            (PostgresConfig(join_collapse_limit=1), NO_HINTS, STRATEGY_COLLAPSED, ("p", "c", "l")),
            (None, HintSet.from_join_order(["l", "c", "p"]), STRATEGY_FORCED, ("l", "c", "p")),
            (None, HintSet.from_leading_prefix(["l"]), STRATEGY_GREEDY, ("l",)),
        ],
        ids=["dp", "geqo", "from-order", "forced-order", "leading-prefix"],
    )
    def test_both_engines_return_the_oracle_rows(self, config, hints, strategy, leading):
        planned, result = run_both(GROUPED_SQL, config, hints)
        assert planned.strategy == strategy
        if leading is not None:
            assert join_order_of(planned.plan)[: len(leading)] == leading
        expected = expected_rows(GROUPED_SQL)
        assert expected, "the grouped join must return groups"
        assert sorted(result.rows, key=repr) == sorted(expected, key=repr)


class TestStoredNullKeys:
    @pytest.mark.parametrize("negated", [False, True], ids=["is-null", "is-not-null"])
    def test_a_null_key_never_joins(self, negated):
        db = _tiny_database()
        parent_ids = db.table_data("child").column("parent_id")
        stored_null = parent_ids == NULL_SENTINEL
        assert stored_null.any() and not stored_null.all(), "fixture must mix NULL and non-NULL keys"
        matched = int(np.isin(parent_ids, db.table_data("parent").column("id")).sum())
        sql = (
            "SELECT COUNT(*) FROM child AS c JOIN parent AS p ON c.parent_id = p.id "
            f"WHERE c.parent_id IS {'NOT ' if negated else ''}NULL"
        )
        # IS NULL keeps only rows whose key then matches nothing; IS NOT NULL
        # keeps every row that can match, so the join is unchanged.
        assert run_both(sql)[1].rows == [(matched if negated else 0,)]

    @pytest.mark.parametrize("join_type", list(JoinType), ids=lambda join_type: join_type.name.lower())
    def test_no_join_method_matches_null_to_null(self, join_type):
        db = _tiny_database()
        child_keys = db.table_data("child").column("parent_id")
        link_keys = db.table_data("link").column("parent_id")
        assert (child_keys == NULL_SENTINEL).any() and (link_keys == NULL_SENTINEL).any()
        stored_child = child_keys[child_keys != NULL_SENTINEL]
        stored_link = link_keys[link_keys != NULL_SENTINEL]
        matched = int((stored_child[:, None] == stored_link[None, :]).sum())
        planned, result = run_both(
            "SELECT COUNT(*) FROM child AS c JOIN link AS l ON c.parent_id = l.parent_id",
            hints=HintSet(join_methods={frozenset({"c", "l"}): join_type}),
        )
        assert [node.join_type for node in plan_join_nodes(planned.plan)] == [join_type]
        assert result.rows == [(matched,)]

    def test_column_aggregates_skip_stored_nulls_and_count_star_keeps_them(self):
        db = _tiny_database()
        child, parent = db.table_data("child"), db.table_data("parent")
        surviving = parent.column("id")[parent.column("score") > 5]
        joined = np.isin(child.column("parent_id"), surviving)
        kinds = child.column("kind")[joined]
        stored = kinds[kinds != NULL_SENTINEL]
        assert 0 < stored.size < kinds.size, "the joined rows must hold some NULL kinds"
        _, result = run_both(
            "SELECT COUNT(*), COUNT(c.kind), SUM(c.kind), AVG(c.kind), MIN(c.kind), MAX(c.kind) "
            "FROM child AS c JOIN parent AS p ON c.parent_id = p.id WHERE p.score > 5"
        )
        assert result.rows == [(
            int(joined.sum()), int(stored.size), int(stored.sum()),
            float(stored.sum() / stored.size), int(stored.min()), int(stored.max()),
        )]


class TestHintsThroughThePlanner:
    def test_every_exact_order_is_honoured_with_the_same_rows(self):
        expected = sorted(expected_rows(GROUPED_SQL), key=repr)
        for order in permutations(("p", "c", "l")):
            planned, result = run_both(GROUPED_SQL, hints=HintSet.from_join_order(order))
            assert join_order_of(planned.plan) == order
            assert sorted(result.rows, key=repr) == expected, order

    @pytest.mark.parametrize(
        "hints, message",
        [
            (HintSet.from_join_order(["p", "c", "x"]), "unknown aliases: \\['x'\\]"),
            (HintSet(join_methods={frozenset({"c", "x"}): JoinType.HASH}), "unknown aliases: \\['x'\\]"),
            (HintSet.from_join_order(["p", "c", "c"]), "repeats an alias"),
        ],
        ids=["unknown-order-alias", "unknown-join-method-alias", "repeated-alias"],
    )
    def test_invalid_hints_are_refused_before_the_cache(self, hints, message):
        db = _tiny_database()
        query = bind_sql(GROUPED_SQL, db.schema)
        planner = Planner(db)
        cached = len(planner.plan_cache)
        with pytest.raises(HintError, match=message):
            planner.plan(query, hints)
        assert len(planner.plan_cache) == cached
