"""Recursive-descent parser for the benchmark SQL dialect.

The grammar (conjunctive SPJ queries with optional GROUP BY / ORDER BY / LIMIT).
The FROM clause is either the comma form (implicit inner joins spelled in
WHERE) or a chain of explicit ``JOIN ... ON`` clauses; the two forms cannot
be mixed in one statement:

.. code-block:: text

    select    := SELECT item (',' item)* FROM from_clause
                 [WHERE predicate (AND predicate)*]
                 [GROUP BY colref (',' colref)*]
                 [ORDER BY order_item (',' order_item)*]
                 [LIMIT number] [';']
    from_clause := table (',' table)*                   -- comma form
               | table join_clause+                     -- explicit form
    join_clause := [INNER] JOIN table ON on_cond (AND on_cond)*
    on_cond   := colref '=' colref                      -- equi-join only
    item      := agg '(' (colref | '*') ')' [AS name] | colref
    table     := identifier [AS] [identifier]
    predicate := colref '=' colref                      -- join
               | colref op literal                      -- comparison
               | colref [NOT] IN '(' literal, ... ')'
               | colref BETWEEN literal AND literal
               | colref [NOT] LIKE string
               | colref IS [NOT] NULL

``LEFT``, ``RIGHT`` and ``FULL [OUTER] JOIN`` raise :class:`SQLSyntaxError`:
the dialect has inner joins only.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql.ast import (
    AggregateItem,
    BetweenFilter,
    ColumnRef,
    ComparisonFilter,
    InFilter,
    JoinClause,
    JoinCondition,
    LikeFilter,
    Literal,
    NullFilter,
    OrderItem,
    SelectStatement,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize

_AGG_FUNCTIONS = {"min", "max", "count", "sum", "avg"}
#: Keywords that start a join clause; the outer ones are rejected by name.
_OUTER_JOIN_KEYWORDS = ("left", "right", "full")
_JOIN_KEYWORDS = ("join", "inner") + _OUTER_JOIN_KEYWORDS


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        self._pos += 1
        return token

    def expect(self, ttype: TokenType, value: str | None = None) -> Token:
        token = self.current
        if token.ttype is not ttype or (value is not None and token.value != value):
            expected = value or ttype.value
            raise SQLSyntaxError(
                f"expected {expected!r} but found {token.value!r}", position=token.position
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SQLSyntaxError(
                f"expected keyword {word.upper()!r} but found {self.current.value!r}",
                position=self.current.position,
            )

    # -- grammar ------------------------------------------------------------------
    def parse(self) -> SelectStatement:
        self.expect_keyword("select")
        select_items = [self._parse_select_item()]
        while self.current.ttype is TokenType.COMMA:
            self.advance()
            select_items.append(self._parse_select_item())

        self.expect_keyword("from")
        from_tables = [self._parse_table_ref()]
        comma_form = False
        while self.current.ttype is TokenType.COMMA:
            self.advance()
            from_tables.append(self._parse_table_ref())
            comma_form = True

        join_clauses: list[JoinClause] = []
        while self._at_join_clause():
            if comma_form:
                raise SQLSyntaxError(
                    "cannot mix a comma-form FROM list with explicit JOIN clauses",
                    position=self.current.position,
                )
            clause = self._parse_join_clause()
            join_clauses.append(clause)
            from_tables.append(clause.table)
        if join_clauses and self.current.ttype is TokenType.COMMA:
            raise SQLSyntaxError(
                "cannot mix explicit JOIN clauses with a comma-form FROM list",
                position=self.current.position,
            )

        statement = SelectStatement(select_items=select_items, from_tables=from_tables)
        statement.join_clauses.extend(join_clauses)
        for clause in join_clauses:
            statement.joins.extend(clause.conditions)

        if self.accept_keyword("where"):
            self._parse_predicate(statement)
            while self.accept_keyword("and"):
                self._parse_predicate(statement)

        if self.current.is_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            statement.group_by.append(self._parse_column_ref())
            while self.current.ttype is TokenType.COMMA:
                self.advance()
                statement.group_by.append(self._parse_column_ref())

        if self.current.is_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            statement.order_by.append(self._parse_order_item())
            while self.current.ttype is TokenType.COMMA:
                self.advance()
                statement.order_by.append(self._parse_order_item())

        if self.accept_keyword("limit"):
            token = self.expect(TokenType.NUMBER)
            statement.limit = int(float(token.value))

        if self.current.ttype is TokenType.SEMICOLON:
            self.advance()
        if self.current.ttype is not TokenType.EOF:
            raise SQLSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                position=self.current.position,
            )
        return statement

    # -- clauses -----------------------------------------------------------------
    def _parse_select_item(self) -> AggregateItem:
        token = self.current
        if token.ttype is TokenType.KEYWORD and token.value in _AGG_FUNCTIONS:
            func = self.advance().value
            self.expect(TokenType.LPAREN)
            if self.current.ttype is TokenType.STAR:
                self.advance()
                column = None
            else:
                self.accept_keyword("distinct")
                column = self._parse_column_ref()
            self.expect(TokenType.RPAREN)
            output_name = None
            if self.accept_keyword("as"):
                output_name = self.expect(TokenType.IDENTIFIER).value
            return AggregateItem(function=func, column=column, output_name=output_name)
        if token.ttype is TokenType.STAR:
            self.advance()
            return AggregateItem(function=None, column=None)
        column = self._parse_column_ref()
        output_name = None
        if self.accept_keyword("as"):
            output_name = self.expect(TokenType.IDENTIFIER).value
        return AggregateItem(function=None, column=column, output_name=output_name)

    def _at_join_clause(self) -> bool:
        token = self.current
        return token.ttype is TokenType.KEYWORD and token.value in _JOIN_KEYWORDS

    def _parse_join_clause(self) -> JoinClause:
        token = self.current
        if token.value in _OUTER_JOIN_KEYWORDS:
            raise SQLSyntaxError(
                f"outer joins are not supported: {token.value.upper()} JOIN at "
                f"position {token.position}; only [INNER] JOIN ... ON is",
                position=token.position,
            )
        self.accept_keyword("inner")
        self.expect_keyword("join")
        table = self._parse_table_ref()
        self.expect_keyword("on")
        conditions = [self._parse_on_condition()]
        while self.accept_keyword("and"):
            conditions.append(self._parse_on_condition())
        return JoinClause(table=table, conditions=tuple(conditions))

    def _parse_on_condition(self) -> JoinCondition:
        left = self._parse_column_ref()
        operator = self.expect(TokenType.OPERATOR)
        if operator.value != "=":
            raise SQLSyntaxError(
                "ON conditions must be equi-join conditions", position=operator.position
            )
        if self.current.ttype is not TokenType.IDENTIFIER:
            raise SQLSyntaxError(
                "ON conditions must compare two column references",
                position=self.current.position,
            )
        right = self._parse_column_ref()
        return JoinCondition(left=left, right=right)

    def _parse_table_ref(self) -> TableRef:
        table = self.expect(TokenType.IDENTIFIER).value
        alias = table
        if self.accept_keyword("as"):
            alias = self.expect(TokenType.IDENTIFIER).value
        elif self.current.ttype is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableRef(table=table, alias=alias)

    def _parse_column_ref(self) -> ColumnRef:
        first = self.expect(TokenType.IDENTIFIER).value
        if self.current.ttype is TokenType.DOT:
            self.advance()
            column = self.expect(TokenType.IDENTIFIER).value
            return ColumnRef(alias=first, column=column)
        return ColumnRef(alias="", column=first)

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column_ref()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderItem(column=column, descending=descending)

    def _parse_literal(self) -> Literal:
        token = self.current
        if token.ttype is TokenType.NUMBER:
            self.advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.ttype is TokenType.STRING:
            self.advance()
            return token.value
        if token.is_keyword("null"):
            self.advance()
            return None
        raise SQLSyntaxError(
            f"expected literal but found {token.value!r}", position=token.position
        )

    def _parse_predicate(self, statement: SelectStatement) -> None:
        column = self._parse_column_ref()
        token = self.current

        if token.ttype is TokenType.OPERATOR:
            op = self.advance().value
            if op == "<>":
                op = "!="
            # join predicate if the right-hand side is another column reference
            if op == "=" and self.current.ttype is TokenType.IDENTIFIER:
                right = self._parse_column_ref()
                statement.joins.append(JoinCondition(left=column, right=right))
                return
            value = self._parse_literal()
            statement.filters.append(ComparisonFilter(column=column, op=op, value=value))
            return

        negated = False
        if token.is_keyword("not"):
            self.advance()
            negated = True
            token = self.current

        if token.is_keyword("in"):
            self.advance()
            self.expect(TokenType.LPAREN)
            values = [self._parse_literal()]
            while self.current.ttype is TokenType.COMMA:
                self.advance()
                values.append(self._parse_literal())
            self.expect(TokenType.RPAREN)
            statement.filters.append(
                InFilter(column=column, values=tuple(values), negated=negated)
            )
            return

        if token.is_keyword("like"):
            self.advance()
            pattern = self.expect(TokenType.STRING).value
            statement.filters.append(
                LikeFilter(column=column, pattern=pattern, negated=negated)
            )
            return

        if token.is_keyword("between"):
            if negated:
                raise SQLSyntaxError("NOT BETWEEN is not supported", position=token.position)
            self.advance()
            low = self._parse_literal()
            self.expect_keyword("and")
            high = self._parse_literal()
            statement.filters.append(BetweenFilter(column=column, low=low, high=high))
            return

        if token.is_keyword("is"):
            if negated:
                raise SQLSyntaxError("unexpected NOT before IS", position=token.position)
            self.advance()
            is_not = self.accept_keyword("not")
            self.expect_keyword("null")
            statement.filters.append(NullFilter(column=column, negated=is_not))
            return

        raise SQLSyntaxError(
            f"unsupported predicate near {token.value!r}", position=token.position
        )


def parse_select(sql: str) -> SelectStatement:
    """Parse a SQL string into a :class:`SelectStatement`."""
    return _Parser(tokenize(sql)).parse()
