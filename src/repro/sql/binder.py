"""Binding of parsed statements against a schema.

The binder resolves aliases and column references, normalizes every WHERE
predicate into either a :class:`JoinPredicate` (equi-join between two
relations) or a :class:`FilterPredicate` (single-table restriction), and
produces the :class:`BoundQuery` structure that the optimizer, the executor
and all query encoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.catalog.schema import Schema
from repro.errors import BindingError
from repro.sql.ast import (
    BetweenFilter,
    ColumnRef,
    ComparisonFilter,
    InFilter,
    LikeFilter,
    NullFilter,
    SelectStatement,
)

#: Normalized filter operators used across the planner and executor.
FILTER_OPS = (
    "=", "!=", "<", "<=", ">", ">=",
    "in", "not_in", "like", "not_like", "is_null", "is_not_null", "between",
)


@dataclass(frozen=True)
class BoundRelation:
    """A FROM-list entry after binding: alias plus resolved table name."""

    alias: str
    table: str


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> tuple[str, str]:
        return (self.left_alias, self.right_alias)

    def involves(self, alias: str) -> bool:
        return alias in (self.left_alias, self.right_alias)

    def column_for(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise BindingError(f"join predicate does not involve alias {alias!r}")

    def other(self, alias: str) -> tuple[str, str]:
        """The (alias, column) on the opposite side of ``alias``."""
        if alias == self.left_alias:
            return (self.right_alias, self.right_column)
        if alias == self.right_alias:
            return (self.left_alias, self.left_column)
        raise BindingError(f"join predicate does not involve alias {alias!r}")

    def __str__(self) -> str:
        return (
            f"{self.left_alias}.{self.left_column} = "
            f"{self.right_alias}.{self.right_column}"
        )


@dataclass(frozen=True)
class FilterPredicate:
    """A normalized single-table filter.

    ``op`` is one of :data:`FILTER_OPS`.  ``values`` holds the literal
    operand(s): one element for comparisons and LIKE, two for BETWEEN, any
    number for IN, zero for NULL tests.
    """

    alias: str
    column: str
    op: str
    values: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise BindingError(f"unknown filter operator {self.op!r}")

    @property
    def value(self) -> object:
        """Single operand convenience accessor (first literal)."""
        return self.values[0] if self.values else None

    def __str__(self) -> str:
        target = f"{self.alias}.{self.column}"
        if self.op in ("is_null", "is_not_null"):
            return f"{target} {self.op}"
        if self.op == "between":
            return f"{target} between {self.values[0]} and {self.values[1]}"
        if self.op in ("in", "not_in"):
            return f"{target} {self.op} {list(self.values)}"
        return f"{target} {self.op} {self.value!r}"


@dataclass
class BoundQuery:
    """A fully bound conjunctive query over a schema."""

    schema: Schema
    relations: list[BoundRelation]
    joins: list[JoinPredicate]
    filters: list[FilterPredicate]
    statement: SelectStatement | None = None
    name: str = ""

    _alias_to_table: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._alias_to_table = {r.alias: r.table for r in self.relations}
        if len(self._alias_to_table) != len(self.relations):
            raise BindingError("duplicate aliases in FROM clause")

    # -- basic accessors ---------------------------------------------------------
    @property
    def aliases(self) -> list[str]:
        return [r.alias for r in self.relations]

    def table_of(self, alias: str) -> str:
        try:
            return self._alias_to_table[alias]
        except KeyError as exc:
            raise BindingError(f"unknown alias {alias!r} in query {self.name!r}") from exc

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_joins(self) -> int:
        return len(self.joins)

    def filters_for(self, alias: str) -> list[FilterPredicate]:
        return [f for f in self.filters if f.alias == alias]

    def joins_between(self, left_aliases: Iterable[str], right_aliases: Iterable[str]) -> list[JoinPredicate]:
        """Join predicates connecting a set of aliases to another set."""
        left = set(left_aliases)
        right = set(right_aliases)
        out = []
        for join in self.joins:
            a, b = join.aliases()
            if (a in left and b in right) or (a in right and b in left):
                out.append(join)
        return out

    # -- join graph --------------------------------------------------------------
    def alias_adjacency(self) -> dict[str, set[str]]:
        """Neighbours of every alias in the join graph, keyed in FROM order.

        A self-join predicate makes an alias its own neighbour.
        """
        adjacency: dict[str, set[str]] = {alias: set() for alias in self.aliases}
        for join in self.joins:
            a, b = join.aliases()
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        return adjacency

    def is_connected(self) -> bool:
        """Whether the join graph connects every relation (no cross products needed)."""
        adjacency = self.alias_adjacency()
        if len(adjacency) <= 1:
            return True
        start = next(iter(adjacency))
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        return len(reached) == len(adjacency)

    def adjacency_matrix(self) -> list[list[int]]:
        """Alias-ordered 0/1 adjacency matrix of the join graph (query encoding)."""
        aliases = self.aliases
        index = {alias: i for i, alias in enumerate(aliases)}
        matrix = [[0] * len(aliases) for _ in aliases]
        for join in self.joins:
            a, b = join.aliases()
            i, j = index[a], index[b]
            matrix[i][j] = 1
            matrix[j][i] = 1
        return matrix

    def to_sql(self) -> str:
        if self.statement is not None:
            return self.statement.to_sql()
        raise BindingError("bound query has no attached statement to render")

    # -- serialization -----------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the bound content, never memoized ``_repro_*`` attributes.

        The runtime memoizes derived values directly on bound instances (the
        content fingerprint, see :mod:`repro.runtime.fingerprint`).  Those
        memos are process-local caches: a bound query travels inside pickled
        task and serving payloads across process *and host* boundaries, and a
        stale or tampered memo would be silently trusted as a cache/store key
        on the receiving side.  Stripping them here forces every consumer to
        recompute from content on first use.
        """
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_repro_")}

    def __str__(self) -> str:
        label = self.name or "query"
        return f"BoundQuery({label}: {self.num_relations} relations, {self.num_joins} joins)"


def _resolve_column(
    ref: ColumnRef,
    alias_to_table: dict[str, str],
    schema: Schema,
) -> tuple[str, str]:
    """Resolve a column reference to ``(alias, column)``, handling unqualified names."""
    if ref.alias:
        if ref.alias not in alias_to_table:
            raise BindingError(f"unknown alias {ref.alias!r} in column reference {ref}")
        table = schema.table(alias_to_table[ref.alias])
        if not table.has_column(ref.column):
            raise BindingError(
                f"table {table.name!r} (alias {ref.alias!r}) has no column {ref.column!r}"
            )
        return ref.alias, ref.column
    candidates = [
        alias
        for alias, tname in alias_to_table.items()
        if schema.table(tname).has_column(ref.column)
    ]
    if not candidates:
        raise BindingError(f"column {ref.column!r} not found in any FROM table")
    if len(candidates) > 1:
        raise BindingError(
            f"column {ref.column!r} is ambiguous across aliases {sorted(candidates)}"
        )
    return candidates[0], ref.column


def bind_query(
    statement: SelectStatement,
    schema: Schema,
    name: str = "",
) -> BoundQuery:
    """Bind a parsed statement against ``schema`` and return a :class:`BoundQuery`."""
    relations: list[BoundRelation] = []
    alias_to_table: dict[str, str] = {}
    for table_ref in statement.from_tables:
        if not schema.has_table(table_ref.table):
            raise BindingError(f"unknown table {table_ref.table!r} in FROM clause")
        if table_ref.alias in alias_to_table:
            raise BindingError(f"duplicate alias {table_ref.alias!r} in FROM clause")
        alias_to_table[table_ref.alias] = table_ref.table
        relations.append(BoundRelation(alias=table_ref.alias, table=table_ref.table))

    joins: list[JoinPredicate] = []
    filters: list[FilterPredicate] = []
    clause_condition_ids: set[int] = set()

    if statement.join_clauses:
        introduced = [statement.from_tables[0].alias]
        for clause in statement.join_clauses:
            new_alias = clause.table.alias
            for condition in clause.conditions:
                clause_condition_ids.add(id(condition))
                left_alias, left_column = _resolve_column(condition.left, alias_to_table, schema)
                right_alias, right_column = _resolve_column(condition.right, alias_to_table, schema)
                if left_alias == right_alias:
                    raise BindingError(
                        f"ON condition {condition} does not join two distinct relations"
                    )
                # Normalize so the newly joined alias sits on the right.
                if right_alias != new_alias:
                    if left_alias != new_alias:
                        raise BindingError(
                            f"ON condition {condition} must reference the joined "
                            f"table {new_alias!r}"
                        )
                    left_alias, left_column, right_alias, right_column = (
                        right_alias, right_column, left_alias, left_column,
                    )
                if left_alias not in introduced:
                    raise BindingError(
                        f"ON condition {condition} references alias {left_alias!r} "
                        "before it is introduced"
                    )
                joins.append(
                    JoinPredicate(
                        left_alias=left_alias,
                        left_column=left_column,
                        right_alias=right_alias,
                        right_column=right_column,
                    )
                )
            introduced.append(new_alias)

    for join in statement.joins:
        if id(join) in clause_condition_ids:
            continue
        left_alias, left_column = _resolve_column(join.left, alias_to_table, schema)
        right_alias, right_column = _resolve_column(join.right, alias_to_table, schema)
        if left_alias == right_alias:
            # A same-alias equality such as ``t.id = t.id`` is a degenerate
            # filter; keep it as an always-true filter rather than a join.
            continue
        joins.append(
            JoinPredicate(
                left_alias=left_alias,
                left_column=left_column,
                right_alias=right_alias,
                right_column=right_column,
            )
        )

    for node in statement.filters:
        alias, column = _resolve_column(node.column, alias_to_table, schema)
        if isinstance(node, ComparisonFilter):
            filters.append(
                FilterPredicate(alias=alias, column=column, op=node.op, values=(node.value,))
            )
        elif isinstance(node, InFilter):
            op = "not_in" if node.negated else "in"
            filters.append(
                FilterPredicate(alias=alias, column=column, op=op, values=tuple(node.values))
            )
        elif isinstance(node, BetweenFilter):
            filters.append(
                FilterPredicate(
                    alias=alias, column=column, op="between", values=(node.low, node.high)
                )
            )
        elif isinstance(node, LikeFilter):
            op = "not_like" if node.negated else "like"
            filters.append(
                FilterPredicate(alias=alias, column=column, op=op, values=(node.pattern,))
            )
        elif isinstance(node, NullFilter):
            op = "is_not_null" if node.negated else "is_null"
            filters.append(FilterPredicate(alias=alias, column=column, op=op, values=()))
        else:  # pragma: no cover - defensive
            raise BindingError(f"unsupported filter node {type(node).__name__}")

    return BoundQuery(
        schema=schema,
        relations=relations,
        joins=joins,
        filters=filters,
        statement=statement,
        name=name,
    )


def bind_sql(sql: str, schema: Schema, name: str = "") -> BoundQuery:
    """Parse and bind SQL text in one step."""
    from repro.sql.parser import parse_select

    return bind_query(parse_select(sql), schema, name=name)
