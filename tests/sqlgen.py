"""A seeded inner-join SQL generator walking a schema's foreign-key graph.

The differential fuzz (``tests/test_fuzz_engines.py``, ``make fuzz-engines``)
and the repeat-loop suite draw their queries from it.  The module constants
below are the whole query distribution; :class:`RandomSqlGenerator` turns
``(schema, seed, index)`` into one SQL string deterministically.  Every
emitted query binds:

* The FROM clause joins up to :data:`MAX_JOINS` relations to the first one,
  each anchored on an alias already in scope, walking foreign-key edges in
  either direction (so both fan-out and self-joins through a shared parent
  occur).  It is spelled as a chain of explicit ``JOIN ... ON`` clauses or,
  with probability :data:`COMMA_FORM_FRACTION`, as a comma-form FROM list
  with the join conditions in WHERE.
* Filters are single-table predicates: integer comparisons and — on
  nullable columns, with probability :data:`NULL_FRACTION` —
  ``IS [NOT] NULL``.  Deliberately NULL-heavy.
* The SELECT list is aggregate-only (``COUNT(*)`` plus up to
  :data:`MAX_AGGREGATES` more), grouped by one sampled column with
  probability :data:`GROUP_BY_FRACTION`.

The per-query RNG is ``random.Random(stable_seed(schema.name, seed, index))``:
query ``i`` is the same whether or not queries ``0..i-1`` were ever rendered.
"""

from __future__ import annotations

import random

from repro.catalog.schema import ColumnType, Schema
from repro.runtime.fingerprint import stable_seed

MAX_JOINS = 4
#: Probability that the joins are spelled in WHERE of a comma-form FROM list.
COMMA_FORM_FRACTION = 0.3
MAX_FILTERS = 2
#: Probability that a filter on a nullable column is ``IS [NOT] NULL``.
NULL_FRACTION = 0.4
COMPARISON_OPS = ("=", "<", "<=", ">", ">=")
#: Inclusive range integer comparison literals are drawn from.
LITERAL_LOW, LITERAL_HIGH = 0, 12
GROUP_BY_FRACTION = 0.4
#: Aggregates sampled on top of the always-present ``COUNT(*)``.
MAX_AGGREGATES = 2
AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


class RandomSqlGenerator:
    """Deterministic ``(schema, seed, index) -> SQL`` sampler."""

    def __init__(self, schema: Schema, seed: int = 0) -> None:
        self.schema = schema
        self.seed = seed
        # Table-level FK adjacency, both directions: table -> [(column,
        # other_table, other_column)].  Sorted for deterministic iteration.
        adjacency: dict[str, list[tuple[str, str, str]]] = {}
        for fk in schema.foreign_keys:
            adjacency.setdefault(fk.child_table, []).append((fk.child_column, fk.parent_table, fk.parent_column))
            adjacency.setdefault(fk.parent_table, []).append((fk.parent_column, fk.child_table, fk.child_column))
        self._adjacency = {table: sorted(edges) for table, edges in adjacency.items()}
        self._tables = schema.table_names()

    def sql(self, index: int) -> str:
        """Render query number ``index``."""
        rng = random.Random(stable_seed(self.schema.name, self.seed, index))
        aliases = {"t0": rng.choice(self._tables)}
        joins: list[tuple[str, str]] = []  # (new alias, ON condition)
        for step in range(1, rng.randint(0, MAX_JOINS) + 1):
            anchors = [alias for alias, table in aliases.items() if table in self._adjacency]
            if not anchors:
                break
            anchor = rng.choice(anchors)
            column, table, other_column = rng.choice(self._adjacency[aliases[anchor]])
            alias = f"t{step}"
            aliases[alias] = table
            joins.append((alias, f"{anchor}.{column} = {alias}.{other_column}"))
        columns = self._integer_columns(aliases)
        filters = self._sample_filters(rng, columns)
        items, group_by = self._sample_select(rng, columns)

        tables = [f"{aliases[alias]} AS {alias}" for alias in aliases]
        if rng.random() < COMMA_FORM_FRACTION:
            from_sql = ", ".join(tables)
            filters = [condition for _, condition in joins] + filters
        else:
            from_sql = " ".join([tables[0]] + [f"JOIN {table} ON {on}" for table, (_, on) in zip(tables[1:], joins)])
        parts = [f"SELECT {', '.join(items)}", f"FROM {from_sql}"]
        if filters:
            parts.append("WHERE " + " AND ".join(filters))
        if group_by:
            parts.append(f"GROUP BY {group_by}")
        return " ".join(parts)

    def _integer_columns(self, aliases: dict[str, str]) -> list[tuple[str, str, bool]]:
        """Sorted ``(alias, column, nullable)`` triples of INTEGER columns."""
        return [
            (alias, column.name, column.nullable)
            for alias in sorted(aliases)
            for column in self.schema.table(aliases[alias]).columns
            if column.ctype is ColumnType.INTEGER
        ]

    @staticmethod
    def _sample_filters(rng: random.Random, columns: list[tuple[str, str, bool]]) -> list[str]:
        filters = []
        for _ in range(rng.randint(0, MAX_FILTERS)):
            alias, column, nullable = rng.choice(columns)
            if nullable and rng.random() < NULL_FRACTION:
                negated = "NOT " if rng.random() < 0.5 else ""
                filters.append(f"{alias}.{column} IS {negated}NULL")
            else:
                op = rng.choice(COMPARISON_OPS)
                filters.append(f"{alias}.{column} {op} {rng.randint(LITERAL_LOW, LITERAL_HIGH)}")
        return filters

    @staticmethod
    def _sample_select(rng: random.Random, columns: list[tuple[str, str, bool]]) -> tuple[list[str], str]:
        items = ["COUNT(*)"]
        for _ in range(rng.randint(0, MAX_AGGREGATES)):
            alias, column, _ = rng.choice(columns)
            items.append(f"{rng.choice(AGGREGATE_FUNCTIONS).upper()}({alias}.{column})")
        group_by = ""
        if rng.random() < GROUP_BY_FRACTION:
            alias, column, _ = rng.choice(columns)
            group_by = f"{alias}.{column}"
            items.insert(0, group_by)
        return items, group_by
