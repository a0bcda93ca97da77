"""Cross-engine differential fuzzing with the seeded RandomSqlGenerator.

Every generated query — outer joins, GROUP BY, NULL-heavy filters — runs
through three independent evaluators:

* the **row** engine (the correctness oracle of the engine pair),
* the **columnar** engine (byte-identical results, metrics and timings), and
* a **brute-force Python oracle** in this file: per-alias filtered row lists,
  an exhaustive nested-loop inner core, then the outer-join edges folded in
  syntax order with SQL NULL semantics (NULL never matches; unmatched tuples
  NULL-extend), finishing with the same aggregate/GROUP BY decoration rules
  the engines implement.

The row/columnar comparison is exact (row order, metrics, simulated time);
the oracle comparison is order-insensitive (the oracle enumerates in its own
order).  ``parse(render_sql(q)) == q`` is additionally checked for every
generated query, pinning the SQL layer's round-trip property.

Knobs (all environment variables):

* ``REPRO_FUZZ_COUNT`` — queries per suite run (default 40 so the tier-1 run
  stays fast; ``make fuzz-engines`` raises it to 1000).
* ``REPRO_FUZZ_SEED`` — generator seed (default 2024).
* ``REPRO_FUZZ_CORPUS`` — directory to write one JSON file per failing query
  into; CI uploads it as the failure artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import NULL_SENTINEL
from repro.executor import engine as engine_module
from repro.executor.engine import create_engine
from repro.optimizer.planner import Planner
from repro.sql.ast import render_sql
from repro.sql.binder import bind_query
from repro.sql.parser import parse_select
from repro.workloads import JoinSamplerConfig, PredicateSamplerConfig, RandomSqlGenerator
from tests.test_executor import _oracle_filter_ok, _tiny_database

FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "40"))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2024"))
CORPUS_DIR = os.environ.get("REPRO_FUZZ_CORPUS", "")


def make_generator(schema) -> RandomSqlGenerator:
    """The fuzz distribution: join-heavy and NULL-heavy."""
    return RandomSqlGenerator(
        schema,
        seed=FUZZ_SEED,
        joins=JoinSamplerConfig(min_joins=0, max_joins=4, outer_fraction=0.45, full_fraction=0.3),
        predicates=PredicateSamplerConfig(max_filters=2, null_fraction=0.4),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _code(db, query, alias: str, column: str, row: int | None) -> int:
    """Stored code of ``alias.column`` in ``row``; NULL-extended rows are NULL."""
    if row is None:
        return NULL_SENTINEL
    return int(db.table_data(query.table_of(alias)).column(column)[row])


def _filtered_rows(db, query, alias: str) -> list[int]:
    data = db.table_data(query.table_of(alias))
    predicates = query.filters_for(alias)
    return [
        row
        for row in range(data.row_count)
        if all(_oracle_filter_ok(data, p, row) for p in predicates)
    ]


def _join_matches(db, query, assignment: dict, row: int, predicates) -> bool:
    """Whether ``row`` of the edge's nullable alias joins ``assignment``."""
    for predicate in predicates:
        left = _code(db, query, predicate.left_alias, predicate.left_column,
                     assignment[predicate.left_alias])
        right = _code(db, query, predicate.right_alias, predicate.right_column, row)
        if left == NULL_SENTINEL or right == NULL_SENTINEL or left != right:
            return False
    return True


def oracle_assignments(db, query) -> list[dict]:
    """All result tuples as alias -> row-or-None mappings.

    The inner core is an exhaustive filtered nested loop; the outer edges
    then fold in syntax order, NULL-extending unmatched tuples (and, for
    FULL joins, unmatched rows of the nullable side).
    """
    filtered = {alias: _filtered_rows(db, query, alias) for alias in query.aliases}

    # Inner core, folded one alias at a time in FROM order.  The binder
    # normalizes every inner-join predicate so its right alias is the later
    # introduced one, which lets each step check exactly the predicates that
    # become bound — a pruned nested loop instead of a full cross product.
    introduced: list[str] = []
    assignments: list[dict] = [{}]
    for alias in query.core_aliases:
        arriving = [j for j in query.inner_joins if j.right_alias == alias]
        assignments = [
            {**assignment, alias: row}
            for assignment in assignments
            for row in filtered[alias]
            if all(_join_matches(db, query, assignment, row, [j]) for j in arriving)
        ]
        introduced.append(alias)

    for edge in query.outer_edges:
        folded: list[dict] = []
        matched_right: set[int] = set()
        for assignment in assignments:
            matches = [
                row
                for row in filtered[edge.nullable_alias]
                if _join_matches(db, query, assignment, row, edge.predicates)
            ]
            if matches:
                matched_right.update(matches)
                folded.extend({**assignment, edge.nullable_alias: row} for row in matches)
            else:
                folded.append({**assignment, edge.nullable_alias: None})
        if edge.join_type == "full":
            folded.extend(
                {**{alias: None for alias in introduced}, edge.nullable_alias: row}
                for row in filtered[edge.nullable_alias]
                if row not in matched_right
            )
        introduced.append(edge.nullable_alias)
        assignments = folded
    return assignments


def _oracle_aggregate(db, query, assignments: list[dict], item) -> object:
    """One aggregate select-item, mirroring the engines' NULL rules."""
    if item.column is None:
        return len(assignments)
    alias = item.column.alias or query.aliases[0]
    codes = [
        code
        for assignment in assignments
        if (code := _code(db, query, alias, item.column.column, assignment[alias]))
        != NULL_SENTINEL
    ]
    if not codes:
        # The engines return NULL here even for COUNT(column): an all-NULL
        # column aggregates to None in this dialect (see _aggregate_columns).
        return None
    data = db.table_data(query.table_of(alias))
    if item.function == "count":
        return len(codes)
    if item.function == "sum":
        return sum(codes)
    if item.function == "avg":
        return float(sum(codes) / len(codes))
    if item.function == "min":
        return data.decode(item.column.column, min(codes))
    if item.function == "max":
        return data.decode(item.column.column, max(codes))
    raise AssertionError(f"oracle does not implement {item.function!r}")


def oracle_rows(db, query) -> list[tuple]:
    """Final output rows of the brute-force oracle (engine decoration rules)."""
    statement = query.statement
    assignments = oracle_assignments(db, query)
    if not statement.group_by:
        return [
            tuple(
                _oracle_aggregate(db, query, assignments, item)
                for item in statement.select_items
            )
        ]
    if not assignments:
        return []
    groups: dict[tuple, list[dict]] = {}
    for assignment in assignments:
        key = tuple(
            _code(db, query, col.alias or query.aliases[0], col.column,
                  assignment[col.alias or query.aliases[0]])
            for col in statement.group_by
        )
        groups.setdefault(key, []).append(assignment)
    rows = []
    for key in sorted(groups):
        decoded = tuple(
            db.table_data(query.table_of(col.alias or query.aliases[0])).decode(
                col.column, code
            )
            for col, code in zip(statement.group_by, key)
        )
        aggregates = tuple(
            _oracle_aggregate(db, query, groups[key], item)
            for item in statement.select_items
            if item.function
        )
        rows.append(decoded + aggregates)
    return rows


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------

def _record_failure(corpus: Path | None, index: int, sql: str, reason: str) -> None:
    if corpus is None:
        return
    corpus.mkdir(parents=True, exist_ok=True)
    payload = {"index": index, "seed": FUZZ_SEED, "sql": sql, "reason": reason}
    (corpus / f"query_{index}.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )


def _check_one(index: int, sql: str) -> None:
    """Run one generated query through all three evaluators."""
    statement = parse_select(sql)
    assert parse_select(render_sql(statement)) == statement, "SQL round-trip drifted"

    db_row, db_col = _tiny_database(), _tiny_database()
    q_row = bind_query(parse_select(sql), db_row.schema, name=f"fuzz_{index}_r")
    q_col = bind_query(parse_select(sql), db_col.schema, name=f"fuzz_{index}_c")
    plan_row = Planner(db_row).plan(q_row)
    plan_col = Planner(db_col).plan(q_col)
    result_row = create_engine(db_row, kind="row").execute(q_row, plan_row)
    result_col = create_engine(db_col, kind="columnar").execute(q_col, plan_col)

    assert result_row.rows == result_col.rows, "row/columnar rows diverge"
    assert result_row.row_count == result_col.row_count
    assert result_row.timed_out == result_col.timed_out
    assert result_row.error == result_col.error
    assert result_row.metrics.__dict__ == result_col.metrics.__dict__, (
        "row/columnar metrics diverge"
    )
    assert result_row.execution_time_ms == result_col.execution_time_ms
    row_nodes = [
        result_row.node_actual_rows[id(n)]
        for n in plan_row.walk()
        if id(n) in result_row.node_actual_rows
    ]
    col_nodes = [
        result_col.node_actual_rows[id(n)]
        for n in plan_col.walk()
        if id(n) in result_col.node_actual_rows
    ]
    assert row_nodes == col_nodes, "row/columnar per-node cardinalities diverge"

    expected = oracle_rows(db_row, q_row)
    assert sorted(result_row.rows, key=repr) == sorted(expected, key=repr), (
        "engine disagrees with brute-force oracle"
    )


class TestDifferentialFuzz:
    def test_seeded_queries_agree_across_engines_and_oracle(self):
        db = _tiny_database()
        generator = make_generator(db.schema)
        corpus = Path(CORPUS_DIR) if CORPUS_DIR else None
        failures = []
        outer_seen = 0
        for index in range(FUZZ_COUNT):
            sql = generator.sql(index)
            if "JOIN" in sql and ("LEFT" in sql or "FULL" in sql):
                outer_seen += 1
            try:
                _check_one(index, sql)
            except AssertionError as exc:
                failures.append((index, sql, str(exc)))
                _record_failure(corpus, index, sql, str(exc))
        assert not failures, (
            f"{len(failures)}/{FUZZ_COUNT} queries diverged; first: "
            f"{failures[0][1]!r}: {failures[0][2]}"
        )
        # The distribution must actually exercise the outer-join paths.
        assert outer_seen >= FUZZ_COUNT // 5


#: The NULL-aggregate rules on hand-written inputs: the grouped query has a
#: NULL group key (children without a parent) whose outer-joined parent
#: column is all NULL, so every aggregate but COUNT(*) of that group is None.
NULL_AGGREGATE_SQL = (
    "SELECT c.parent_id, COUNT(*), COUNT(p.score), SUM(p.score), AVG(p.score), "
    "MIN(p.score), MAX(p.score) FROM child AS c LEFT JOIN parent AS p "
    "ON c.parent_id = p.id GROUP BY c.parent_id",
    "SELECT c.kind, COUNT(*), COUNT(c.parent_id), SUM(c.parent_id), AVG(c.parent_id), "
    "MIN(c.parent_id), MAX(c.parent_id) FROM child AS c GROUP BY c.kind",
    "SELECT COUNT(*), COUNT(p.score), SUM(p.score), AVG(p.score), MIN(p.score), "
    "MAX(p.score) FROM child AS c LEFT JOIN parent AS p ON c.parent_id = p.id "
    "WHERE c.parent_id IS NULL",
)


class TestNullAggregates:
    @pytest.mark.parametrize("index", range(len(NULL_AGGREGATE_SQL)))
    def test_null_groups_agree_across_engines_and_oracle(self, index):
        _check_one(index, NULL_AGGREGATE_SQL[index])

    @pytest.mark.parametrize("slice_rows", [1, 3])
    def test_slices_of_whole_groups_agree_with_the_oracle(self, slice_rows, monkeypatch):
        monkeypatch.setattr(engine_module, "AGGREGATE_SLICE_ROWS", slice_rows)
        for index, sql in enumerate(NULL_AGGREGATE_SQL):
            _check_one(index, sql)

    def test_the_grouped_input_has_an_all_null_null_keyed_group(self):
        db = _tiny_database()
        rows = oracle_rows(db, bind_query(parse_select(NULL_AGGREGATE_SQL[0]), db.schema))
        null_group = [row for row in rows if row[0] is None]
        assert len(null_group) == 1 and null_group[0][1] > 0
        assert null_group[0][2:] == (None,) * 5
        assert any(row[2] is not None for row in rows)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(index=st.integers(min_value=0, max_value=1_000_000))
    def test_parse_render_parse_is_identity(self, index):
        schema = _tiny_database().schema
        generator = make_generator(schema)
        statement = parse_select(generator.sql(index))
        assert parse_select(render_sql(statement)) == statement


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
