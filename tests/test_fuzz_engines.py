"""Cross-engine differential fuzzing with the seeded inner-join SQL generator.

Every generated query (``tests/sqlgen.py``: joins in both FROM forms,
aggregates, GROUP BY, NULL-heavy filters) runs through three independent
evaluators:

* the **row** engine (the correctness oracle of the engine pair),
* the **columnar** engine (byte-identical results, metrics and timings), and
* a **brute-force Python oracle** in this file: per-alias filtered row lists
  joined by an exhaustive nested loop with SQL NULL semantics (NULL never
  matches), finishing with the same aggregate/GROUP BY decoration rules the
  engines implement.

The row/columnar comparison is exact (row order, metrics, simulated time);
the oracle comparison is order-insensitive (the oracle enumerates in its own
order).  ``parse(q.to_sql()) == q`` is additionally checked for every
generated query, pinning the SQL layer's round-trip property.  The corpus
must reach multi-join and GROUP BY queries and both FROM forms, and the
generator's queries also run on both engines over the IMDB and STACK data.

Knobs (all environment variables):

* ``REPRO_FUZZ_COUNT`` — queries per suite run (default 40 so the tier-1 run
  stays fast; ``make fuzz-engines`` raises it to 1000).
* ``REPRO_FUZZ_SEED`` — generator seed (default 2024).
* ``REPRO_FUZZ_CORPUS`` — directory to write one JSON file per failing query
  into; CI uploads it as the failure artifact.  Unset, a run with failing
  queries writes them into a fresh ``repro-fuzz-corpus.*`` temp directory.
  A passing run makes no directory.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import NULL_SENTINEL
from repro.config import ENGINE_KINDS
from repro.executor import engine as engine_module
from repro.executor.engine import create_engine
from repro.optimizer.planner import Planner
from repro.sql.binder import bind_query
from repro.sql.parser import parse_select
from tests.sqlgen import RandomSqlGenerator
from tests.test_columnar import assert_results_equal
from tests.test_executor import _oracle_filter_ok, _tiny_database

FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "40"))
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2024"))
CORPUS_DIR = os.environ.get("REPRO_FUZZ_CORPUS", "")


def make_generator(schema) -> RandomSqlGenerator:
    return RandomSqlGenerator(schema, seed=FUZZ_SEED)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _code(db, query, alias: str, column: str, row: int) -> int:
    """Stored code of ``alias.column`` in ``row``."""
    return int(db.table_data(query.table_of(alias)).column(column)[row])


def _filtered_rows(db, query, alias: str) -> list[int]:
    data = db.table_data(query.table_of(alias))
    predicates = query.filters_for(alias)
    return [
        row
        for row in range(data.row_count)
        if all(_oracle_filter_ok(data, p, row) for p in predicates)
    ]


def _joins(db, query, assignment: dict, row: int, predicate) -> bool:
    """Whether ``row`` of the predicate's right alias joins ``assignment``."""
    left = _code(db, query, predicate.left_alias, predicate.left_column, assignment[predicate.left_alias])
    right = _code(db, query, predicate.right_alias, predicate.right_column, row)
    return left != NULL_SENTINEL and right != NULL_SENTINEL and left == right


def oracle_assignments(db, query) -> list[dict]:
    """All result tuples as alias -> row mappings.

    Folded one alias at a time in FROM order.  Every join predicate has its
    later introduced alias on the right (the binder normalizes ``ON``
    conditions so, and the generator writes WHERE joins so), which lets each
    step check exactly the predicates that become bound — a pruned nested
    loop instead of a full cross product.
    """
    assignments: list[dict] = [{}]
    for alias in query.aliases:
        arriving = [j for j in query.joins if j.right_alias == alias]
        rows = _filtered_rows(db, query, alias)
        assignments = [
            {**assignment, alias: row}
            for assignment in assignments
            for row in rows
            if all(_joins(db, query, assignment, row, j) for j in arriving)
        ]
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

def _record_failures(failures: list[tuple[int, str, str]]) -> Path:
    """Write one JSON file per failing query into the corpus directory, made here."""
    corpus = Path(CORPUS_DIR) if CORPUS_DIR else Path(tempfile.mkdtemp(prefix="repro-fuzz-corpus."))
    corpus.mkdir(parents=True, exist_ok=True)
    for index, sql, reason in failures:
        payload = {"index": index, "seed": FUZZ_SEED, "sql": sql, "reason": reason}
        (corpus / f"query_{index}.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return corpus


def _check_one(index: int, sql: str) -> None:
    """Run one generated query through all three evaluators."""
    statement = parse_select(sql)
    assert parse_select(statement.to_sql()) == statement, "SQL round-trip drifted"

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
        failures = []
        multi_join = grouped = explicit = comma = 0
        for index in range(FUZZ_COUNT):
            sql = generator.sql(index)
            statement = parse_select(sql)
            multi_join += len(statement.joins) >= 2
            grouped += bool(statement.group_by)
            explicit += bool(statement.join_clauses)
            comma += bool(statement.joins) and not statement.join_clauses
            try:
                _check_one(index, sql)
            except AssertionError as exc:
                failures.append((index, sql, str(exc)))
        assert not failures, (
            f"{len(failures)}/{FUZZ_COUNT} queries diverged (corpus: {_record_failures(failures)}); "
            f"first: {failures[0][1]!r}: {failures[0][2]}"
        )
        # The distribution must reach multi-join and grouped queries, and
        # joins written in both FROM forms.
        assert multi_join >= FUZZ_COUNT // 5 and grouped >= FUZZ_COUNT // 5
        assert explicit and comma


#: The NULL-aggregate rules on hand-written inputs: the grouped join has a
#: NULL group key (children without a parent) and aggregates that key, so
#: every aggregate but COUNT(*) of that group is None; the last input
#: aggregates a column its filter keeps NULL in every joined tuple.
NULL_AGGREGATE_SQL = (
    "SELECT c.parent_id, COUNT(*), COUNT(c.parent_id), SUM(c.parent_id), AVG(c.parent_id), "
    "MIN(c.parent_id), MAX(c.parent_id) FROM child AS c JOIN link AS l "
    "ON c.id = l.id GROUP BY c.parent_id",
    "SELECT c.kind, COUNT(*), COUNT(c.parent_id), SUM(c.parent_id), AVG(c.parent_id), "
    "MIN(c.parent_id), MAX(c.parent_id) FROM child AS c GROUP BY c.kind",
    "SELECT COUNT(*), COUNT(c.parent_id), SUM(c.parent_id), AVG(c.parent_id), MIN(c.parent_id), "
    "MAX(c.parent_id) FROM child AS c JOIN parent AS p ON c.kind = p.category "
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
        assert parse_select(statement.to_sql()) == statement


class TestBenchmarkSchemas:
    """The generator's queries over the IMDB and STACK data, on both engines."""

    @pytest.mark.parametrize("database", ["imdb_db", "stack_db"])
    def test_generated_queries_agree_across_engines(self, database, request):
        db = request.getfixturevalue(database)
        generator = make_generator(db.schema)
        planner = Planner(db)
        returned_rows = 0
        for index in range(12):
            query = bind_query(parse_select(generator.sql(index)), db.schema, name=f"gen_{index}")
            plan = planner.plan(query)
            results = []
            for kind in ENGINE_KINDS:
                db.drop_caches()
                results.append(create_engine(db, kind=kind).execute(query, plan))
            db.drop_caches()
            assert_results_equal(*results, plan, plan, context=generator.sql(index))
            returned_rows += results[0].succeeded and results[0].row_count > 0
        assert returned_rows >= 8


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
