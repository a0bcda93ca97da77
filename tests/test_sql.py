"""Tests for the SQL lexer, parser and binder."""

import pytest

from repro.errors import BindingError, SQLSyntaxError
from repro.sql.ast import BetweenFilter, ComparisonFilter, InFilter, LikeFilter, NullFilter
from repro.sql.binder import bind_query, bind_sql
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse_select


class TestLexer:
    def test_tokenizes_keywords_and_identifiers(self):
        tokens = tokenize("SELECT COUNT(*) FROM title AS t")
        kinds = [t.ttype for t in tokens]
        assert kinds[0] is TokenType.KEYWORD
        assert TokenType.STAR in kinds
        assert kinds[-1] is TokenType.EOF

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("x = 'it''s'")
        strings = [t for t in tokens if t.ttype is TokenType.STRING]
        assert strings[0].value == "it's"

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("x = 'oops")

    def test_negative_number_after_operator(self):
        tokens = tokenize("x > -5")
        numbers = [t for t in tokens if t.ttype is TokenType.NUMBER]
        assert numbers[0].value == "-5"

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT * -- a comment\nFROM t")
        assert not any(t.value == "comment" for t in tokens)

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @ FROM t")


class TestParser:
    def test_parses_job_style_query(self):
        sql = """
            SELECT MIN(t.title) AS movie_title, COUNT(*)
            FROM title AS t, movie_keyword AS mk, keyword AS k
            WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
              AND k.keyword = 'sequel' AND t.production_year > 2000;
        """
        stmt = parse_select(sql)
        assert [t.alias for t in stmt.from_tables] == ["t", "mk", "k"]
        assert len(stmt.joins) == 2
        assert len(stmt.filters) == 2
        assert stmt.select_items[0].function == "min"
        assert stmt.select_items[1].column is None  # COUNT(*)

    def test_parses_in_between_like_null(self):
        sql = (
            "SELECT COUNT(*) FROM title AS t WHERE t.kind_id IN (1, 2, 3) "
            "AND t.production_year BETWEEN 1990 AND 2000 "
            "AND t.title LIKE '%Dark%' AND t.episode_nr IS NOT NULL "
            "AND t.title NOT LIKE '%Test%'"
        )
        stmt = parse_select(sql)
        kinds = [type(f) for f in stmt.filters]
        assert kinds == [InFilter, BetweenFilter, LikeFilter, NullFilter, LikeFilter]
        assert stmt.filters[3].negated is True
        assert stmt.filters[4].negated is True

    def test_parses_group_by_order_by_limit(self):
        sql = (
            "SELECT kt.kind, COUNT(*) FROM kind_type AS kt, title AS t "
            "WHERE t.kind_id = kt.id GROUP BY kt.kind ORDER BY kt.kind DESC LIMIT 10"
        )
        stmt = parse_select(sql)
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending is True
        assert stmt.limit == 10

    def test_alias_without_as_keyword(self):
        stmt = parse_select("SELECT COUNT(*) FROM title t WHERE t.production_year > 2000")
        assert stmt.from_tables[0].alias == "t"

    def test_comparison_operators_normalized(self):
        stmt = parse_select("SELECT COUNT(*) FROM title AS t WHERE t.kind_id <> 3")
        assert isinstance(stmt.filters[0], ComparisonFilter)
        assert stmt.filters[0].op == "!="

    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT COUNT(*) FROM t WHERE t.x = 1 GARBAGE")

    def test_missing_from_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_select("SELECT COUNT(*) WHERE x = 1")

    def test_to_sql_round_trips(self):
        sql = (
            "SELECT MIN(t.id) AS m, COUNT(*) FROM title AS t, kind_type AS kt "
            "WHERE t.kind_id = kt.id AND kt.kind = 'movie' AND t.production_year > 1990"
        )
        stmt = parse_select(sql)
        reparsed = parse_select(stmt.to_sql())
        assert len(reparsed.joins) == len(stmt.joins)
        assert len(reparsed.filters) == len(stmt.filters)
        assert [t.alias for t in reparsed.from_tables] == [t.alias for t in stmt.from_tables]


class TestBinder:
    def test_bind_resolves_aliases_and_filters(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
            "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'sequel'",
            schema_only,
            name="q",
        )
        assert query.num_relations == 3
        assert query.num_joins == 2
        assert query.table_of("mk") == "movie_keyword"
        assert query.filters_for("k")[0].op == "="

    def test_bind_unknown_table(self, schema_only):
        with pytest.raises(BindingError):
            bind_sql("SELECT COUNT(*) FROM nonexistent AS n", schema_only)

    def test_bind_unknown_column(self, schema_only):
        with pytest.raises(BindingError):
            bind_sql("SELECT COUNT(*) FROM title AS t WHERE t.bogus = 1", schema_only)

    def test_bind_duplicate_alias(self, schema_only):
        with pytest.raises(BindingError):
            bind_sql("SELECT COUNT(*) FROM title AS t, keyword AS t", schema_only)

    def test_unqualified_column_resolution(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, keyword AS k WHERE production_year > 2000 "
            "AND t.id = k.id",
            schema_only,
        )
        assert query.filters[0].alias == "t"

    def test_ambiguous_unqualified_column_raises(self, schema_only):
        with pytest.raises(BindingError):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t, aka_title AS at2 WHERE title = 'x' "
                "AND t.id = at2.movie_id",
                schema_only,
            )

    def test_join_graph_and_adjacency(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
            "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id",
            schema_only,
        )
        assert query.alias_adjacency() == {"t": {"mk"}, "mk": {"t", "k"}, "k": {"mk"}}
        assert query.is_connected()
        matrix = query.adjacency_matrix()
        assert matrix[0][1] == 1 and matrix[1][2] == 1 and matrix[0][2] == 0

    def test_disconnected_query_detected(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, keyword AS k WHERE t.production_year > 2000",
            schema_only,
        )
        assert not query.is_connected()

    def test_joins_between(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
            "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id",
            schema_only,
        )
        between = query.joins_between({"t"}, {"mk"})
        assert len(between) == 1
        assert between[0].column_for("mk") == "movie_id"
        assert between[0].other("mk") == ("t", "id")

    def test_same_alias_equality_is_not_a_join(self, schema_only):
        stmt = parse_select("SELECT COUNT(*) FROM title AS t WHERE t.id = t.id")
        query = bind_query(stmt, schema_only)
        assert query.num_joins == 0


class TestOuterJoinParsing:
    SQL = (
        "SELECT COUNT(*) FROM title AS t "
        "LEFT JOIN movie_keyword AS mk ON t.id = mk.movie_id "
        "FULL OUTER JOIN keyword AS k ON mk.keyword_id = k.id"
    )

    def test_join_clauses_carry_type_and_conditions(self):
        stmt = parse_select(self.SQL)
        assert [clause.join_type for clause in stmt.join_clauses] == ["left", "full"]
        assert [clause.table.alias for clause in stmt.join_clauses] == ["mk", "k"]
        # The flat joins list sees every ON condition with its join type.
        assert [j.join_type for j in stmt.joins] == ["left", "full"]

    def test_inner_join_keyword_forms(self):
        plain = parse_select("SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id")
        spelled = parse_select(
            "SELECT COUNT(*) FROM title AS t INNER JOIN movie_keyword AS mk ON t.id = mk.movie_id"
        )
        assert plain == spelled
        assert plain.join_clauses[0].join_type == "inner"

    def test_to_sql_round_trips_and_canonicalizes(self):
        stmt = parse_select(self.SQL)
        rendered = stmt.to_sql()
        # Canonical form drops the optional OUTER keyword.
        assert "LEFT JOIN movie_keyword AS mk" in rendered
        assert "FULL JOIN keyword AS k" in rendered
        assert parse_select(rendered) == stmt

    def test_mixing_comma_and_explicit_joins_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="cannot mix"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk "
                "LEFT JOIN keyword AS k ON mk.keyword_id = k.id"
            )
        with pytest.raises(SQLSyntaxError, match="cannot mix"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t "
                "LEFT JOIN movie_keyword AS mk ON t.id = mk.movie_id, keyword AS k"
            )

    def test_non_equi_on_condition_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="equi-join"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t LEFT JOIN movie_keyword AS mk ON t.id > mk.movie_id"
            )
        with pytest.raises(SQLSyntaxError, match="column references"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t LEFT JOIN movie_keyword AS mk ON t.id = 5"
            )


class TestOuterJoinBinding:
    SQL = TestOuterJoinParsing.SQL

    def test_outer_edges_and_core_query(self, schema_only):
        query = bind_sql(self.SQL, schema_only)
        assert query.has_outer_joins
        assert [str(edge) for edge in query.outer_edges] == [
            "LEFT JOIN mk ON t.id = mk.movie_id",
            "FULL JOIN k ON mk.keyword_id = k.id",
        ]
        assert query.core_aliases == ["t"]
        core = query.core_query()
        assert core.aliases == ["t"]
        assert core.outer_edges == []
        assert not core.has_outer_joins

    def test_inner_only_query_core_is_self(self, schema_only):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk WHERE t.id = mk.movie_id",
            schema_only,
        )
        assert query.core_query() is query
        assert query.inner_joins == query.joins

    def test_inner_join_after_outer_on_nullable_alias_rejected(self, schema_only):
        with pytest.raises(BindingError, match="reorder the clauses"):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t "
                "LEFT JOIN movie_keyword AS mk ON t.id = mk.movie_id "
                "JOIN keyword AS k ON mk.keyword_id = k.id",
                schema_only,
            )

    def test_where_join_touching_nullable_alias_rejected(self, schema_only):
        with pytest.raises(BindingError, match="nullable outer-join alias"):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t "
                "LEFT JOIN movie_keyword AS mk ON t.id = mk.movie_id "
                "WHERE mk.movie_id = t.id",
                schema_only,
            )

    def test_on_condition_must_reference_the_joined_table(self, schema_only):
        with pytest.raises(BindingError, match="must reference the joined table"):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t "
                "JOIN movie_keyword AS mk ON t.id = mk.movie_id "
                "JOIN keyword AS k ON t.id = mk.movie_id",
                schema_only,
            )

    def test_scan_filter_on_nullable_alias_is_allowed(self, schema_only):
        query = bind_sql(
            self.SQL + " WHERE mk.keyword_id IS NULL",
            schema_only,
        )
        assert [str(f) for f in query.filters_for("mk")] == ["mk.keyword_id is_null"]
