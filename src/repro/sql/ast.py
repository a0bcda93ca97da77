"""Abstract syntax tree node types produced by the parser.

The AST is deliberately flat: JOB-style queries are conjunctive
select-project-join queries, so the ``WHERE`` clause is represented as a list
of join conditions plus a list of single-table filters rather than a general
boolean expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly alias-qualified) column reference such as ``t.production_year``."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}" if self.alias else self.column


@dataclass(frozen=True)
class TableRef:
    """A FROM-list item ``table AS alias`` (alias defaults to the table name)."""

    table: str
    alias: str

    def __str__(self) -> str:
        if self.alias == self.table:
            return self.table
        return f"{self.table} AS {self.alias}"


@dataclass(frozen=True)
class AggregateItem:
    """A SELECT-list item: either an aggregate over a column or a plain column."""

    function: str | None  # "min", "max", "count", "sum", "avg" or None
    column: ColumnRef | None  # None for COUNT(*)
    output_name: str | None = None

    def __str__(self) -> str:
        rendered = "*" if self.column is None else str(self.column)
        if self.function is not None:
            rendered = f"{self.function.upper()}({rendered})"
        if self.output_name:
            rendered += f" AS {self.output_name}"
        return rendered


@dataclass(frozen=True)
class JoinCondition:
    """An equi-join condition ``left = right`` between two column references."""

    left: ColumnRef
    right: ColumnRef

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class JoinClause:
    """An explicit ``[INNER] JOIN table ON cond [AND cond]*`` clause.

    The clause introduces ``table`` into the FROM list.  The flat
    ``SelectStatement.joins`` list still holds all conditions (clause
    conditions included) so that consumers of the conjunctive representation
    keep working unchanged.
    """

    table: TableRef
    conditions: tuple[JoinCondition, ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("explicit JOIN clause requires at least one ON condition")

    def __str__(self) -> str:
        conditions = " AND ".join(str(c) for c in self.conditions)
        return f"JOIN {self.table} ON {conditions}"


Literal = Union[int, float, str, None]


@dataclass(frozen=True)
class ComparisonFilter:
    """A single-table comparison filter, e.g. ``t.production_year > 2000``."""

    column: ColumnRef
    op: str  # one of =, !=, <, <=, >, >=
    value: Literal

    def __str__(self) -> str:
        return f"{self.column} {self.op} {_render_literal(self.value)}"


@dataclass(frozen=True)
class InFilter:
    """``column IN (v1, v2, ...)``, optionally negated."""

    column: ColumnRef
    values: tuple[Literal, ...]
    negated: bool = False

    def __str__(self) -> str:
        rendered = ", ".join(_render_literal(v) for v in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"{self.column} {keyword} ({rendered})"


@dataclass(frozen=True)
class BetweenFilter:
    """``column BETWEEN low AND high``."""

    column: ColumnRef
    low: Literal
    high: Literal

    def __str__(self) -> str:
        return f"{self.column} BETWEEN {_render_literal(self.low)} AND {_render_literal(self.high)}"


@dataclass(frozen=True)
class LikeFilter:
    """``column LIKE 'pattern'``, optionally negated."""

    column: ColumnRef
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.column} {keyword} '{self.pattern}'"


@dataclass(frozen=True)
class NullFilter:
    """``column IS NULL`` or ``column IS NOT NULL``."""

    column: ColumnRef
    negated: bool = False  # negated=True means IS NOT NULL

    def __str__(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.column} {keyword}"


FilterNode = Union[ComparisonFilter, InFilter, BetweenFilter, LikeFilter, NullFilter]


@dataclass(frozen=True)
class OrderItem:
    """An ORDER BY item with direction."""

    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


@dataclass
class SelectStatement:
    """A parsed SELECT statement of the benchmark dialect."""

    select_items: list[AggregateItem]
    from_tables: list[TableRef]
    joins: list[JoinCondition] = field(default_factory=list)
    filters: list[FilterNode] = field(default_factory=list)
    group_by: list[ColumnRef] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    #: Explicit ``JOIN ... ON`` clauses, in syntax order.  Empty for the
    #: comma-form FROM list.  Excluded from ``repr``, which query
    #: fingerprints read: the flat ``joins`` list holds every clause condition.
    join_clauses: list[JoinClause] = field(default_factory=list, repr=False)

    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.from_tables]

    def filters_for(self, alias: str) -> list[FilterNode]:
        """All single-table filters attached to one FROM alias."""
        return [f for f in self.filters if f.column.alias == alias]

    def to_sql(self) -> str:
        """Render the statement back to SQL text (round-trips through the parser)."""
        select = ", ".join(str(item) for item in self.select_items) or "*"
        if self.join_clauses:
            from_clause = " ".join(
                [str(self.from_tables[0])] + [str(clause) for clause in self.join_clauses]
            )
            # Clause conditions render inside their ON lists; anything left in
            # the flat list (rare, programmatic) still renders in WHERE.
            where_joins = list(self.joins)
            for clause in self.join_clauses:
                for condition in clause.conditions:
                    if condition in where_joins:
                        where_joins.remove(condition)
        else:
            from_clause = ", ".join(str(t) for t in self.from_tables)
            where_joins = list(self.joins)
        parts = [f"SELECT {select}", f"FROM {from_clause}"]
        predicates = [str(j) for j in where_joins] + [str(f) for f in self.filters]
        if predicates:
            parts.append("WHERE " + " AND ".join(predicates))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return "\n".join(parts) + ";"


def _render_literal(value: Literal) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
