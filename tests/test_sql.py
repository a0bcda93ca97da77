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

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT MIN(t.id) AS m, COUNT(*) FROM title AS t, kind_type AS kt "
            "WHERE t.kind_id = kt.id AND kt.kind = 'movie' AND t.production_year > 1990",
            "SELECT * FROM a JOIN b ON a.x = b.y",
            "SELECT a.x AS q, COUNT(*) AS n FROM a GROUP BY a.x",
        ],
        ids=["aggregates", "star", "aliased-column"],
    )
    def test_to_sql_round_trips(self, sql):
        stmt = parse_select(sql)
        assert parse_select(stmt.to_sql()) == stmt


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

    def test_on_condition_must_reference_the_joined_table(self, schema_only):
        with pytest.raises(BindingError, match="must reference the joined table"):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t "
                "JOIN movie_keyword AS mk ON t.id = mk.movie_id "
                "JOIN keyword AS k ON t.id = mk.movie_id",
                schema_only,
            )

    def test_on_conditions_bind_with_the_joined_alias_on_the_right(self, schema_only):
        """Whichever side an ON condition names the joined table on, and however
        many conditions a clause has, the bound join has that alias on the right."""
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t "
            "JOIN movie_keyword AS mk ON mk.movie_id = t.id "
            "JOIN movie_info AS mi ON t.id = mi.movie_id AND mi.movie_id = mk.movie_id",
            schema_only,
        )
        assert [(j.left_alias, j.right_alias) for j in query.joins] == [("t", "mk"), ("t", "mi"), ("mk", "mi")]
        assert [(j.left_column, j.right_column) for j in query.joins] == [
            ("id", "movie_id"), ("id", "movie_id"), ("movie_id", "movie_id"),
        ]

    def test_on_condition_naming_a_later_table_is_rejected(self, schema_only):
        with pytest.raises(BindingError, match="references alias 'k' before it is introduced"):
            bind_sql(
                "SELECT COUNT(*) FROM title AS t "
                "JOIN movie_keyword AS mk ON mk.keyword_id = k.id "
                "JOIN keyword AS k ON t.id = mk.movie_id",
                schema_only,
            )


class TestExplicitJoinParsing:
    SQL = (
        "SELECT COUNT(*) FROM title AS t "
        "JOIN movie_keyword AS mk ON t.id = mk.movie_id "
        "INNER JOIN keyword AS k ON mk.keyword_id = k.id"
    )

    def test_join_clauses_carry_their_conditions(self):
        stmt = parse_select(self.SQL)
        assert [clause.table.alias for clause in stmt.join_clauses] == ["mk", "k"]
        # The flat joins list sees every ON condition.
        assert stmt.joins == [c for clause in stmt.join_clauses for c in clause.conditions]

    def test_inner_join_keyword_forms(self):
        plain = parse_select("SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id")
        spelled = parse_select(
            "SELECT COUNT(*) FROM title AS t INNER JOIN movie_keyword AS mk ON t.id = mk.movie_id"
        )
        assert plain == spelled

    def test_to_sql_round_trips_and_canonicalizes(self):
        stmt = parse_select(self.SQL)
        rendered = stmt.to_sql()
        # Canonical form drops the optional INNER keyword.
        assert "FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id JOIN keyword AS k" in rendered
        assert "INNER" not in rendered
        assert parse_select(rendered) == stmt

    def test_mixing_comma_and_explicit_joins_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="cannot mix"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk "
                "JOIN keyword AS k ON mk.keyword_id = k.id"
            )
        with pytest.raises(SQLSyntaxError, match="cannot mix"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t "
                "JOIN movie_keyword AS mk ON t.id = mk.movie_id, keyword AS k"
            )

    def test_non_equi_on_condition_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="equi-join"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id > mk.movie_id"
            )
        with pytest.raises(SQLSyntaxError, match="column references"):
            parse_select(
                "SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = 5"
            )

    @pytest.mark.parametrize("keyword", ["LEFT", "RIGHT OUTER", "FULL OUTER"])
    def test_outer_joins_are_rejected_by_name(self, keyword):
        sql = f"SELECT COUNT(*) FROM title AS t {keyword} JOIN movie_keyword AS mk ON t.id = mk.movie_id"
        with pytest.raises(SQLSyntaxError, match=f"outer joins are not supported: {keyword.split()[0]} JOIN") as info:
            parse_select(sql)
        assert info.value.position == sql.index(keyword)

    def test_an_outer_join_after_an_inner_one_is_rejected_at_its_keyword(self):
        sql = (
            "SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id "
            "left outer join keyword AS k ON mk.keyword_id = k.id"
        )
        with pytest.raises(SQLSyntaxError, match="outer joins are not supported: LEFT JOIN") as info:
            parse_select(sql)
        assert info.value.position == sql.index("left")
