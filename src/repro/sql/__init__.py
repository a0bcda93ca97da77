"""SQL frontend: lexer, parser, AST and binder for the benchmark query dialect.

The dialect covers what JOB, Ext-JOB and STACK need:

* ``SELECT`` lists with ``MIN`` / ``MAX`` / ``COUNT`` / ``SUM`` / ``AVG``
  aggregates and plain column references,
* comma-separated ``FROM`` lists with ``AS`` aliases, *or* an explicit inner
  join chain ``FROM t0 [INNER] JOIN t1 ON a = b [AND c = d] JOIN t2 ON ...``
  — the two FROM forms cannot be mixed in one statement, and ``ON``
  conditions must be equi-joins between column references,
* ``WHERE`` conjunctions of equi-join predicates and single-table filters
  (``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``, ``IN``, ``BETWEEN``, ``LIKE``,
  ``NOT LIKE``, ``IS [NOT] NULL``),
* optional ``GROUP BY``, ``ORDER BY`` and ``LIMIT`` (used by Ext-JOB).

Outer joins (``LEFT`` / ``RIGHT`` / ``FULL [OUTER] JOIN``) are not part of
the dialect: the parser rejects them by name.

Parsing produces a :class:`repro.sql.ast.SelectStatement`; binding against a
:class:`repro.catalog.Schema` produces a
:class:`repro.sql.binder.BoundQuery`, the structure every optimizer in the
repository consumes.
"""

from repro.sql.ast import (
    AggregateItem,
    BetweenFilter,
    ColumnRef,
    ComparisonFilter,
    InFilter,
    JoinClause,
    JoinCondition,
    LikeFilter,
    NullFilter,
    OrderItem,
    SelectStatement,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse_select
from repro.sql.binder import (
    BoundQuery,
    BoundRelation,
    FilterPredicate,
    JoinPredicate,
    bind_query,
)

__all__ = [
    "AggregateItem",
    "BetweenFilter",
    "ColumnRef",
    "ComparisonFilter",
    "InFilter",
    "JoinClause",
    "JoinCondition",
    "LikeFilter",
    "NullFilter",
    "OrderItem",
    "SelectStatement",
    "TableRef",
    "Token",
    "TokenType",
    "tokenize",
    "parse_select",
    "BoundQuery",
    "BoundRelation",
    "FilterPredicate",
    "JoinPredicate",
    "bind_query",
]
