"""Tests for the execution engine: correctness, cache behaviour, timing, EXPLAIN."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.catalog.schema import Column, ForeignKey, Index, Schema, Table
from repro.catalog.statistics import NULL_SENTINEL
from repro.errors import ExecutionError, PlanError
from repro.executor import operators
from repro.executor.engine import ExecutionEngine, create_engine
from repro.executor.explain import explain_analyze, explain_analyze_text, explain_plan
from repro.executor.operators import KeyMatch, OperatorMetrics, index_nestloop_inner
from repro.executor.timing import TimingModel
from repro.config import ENGINE_KINDS, SIMULATION_CONFIG
from repro.optimizer.enumeration import enumerate_join_trees, left_deep_plan_from_order
from repro.optimizer.planner import Planner
from repro.plans.hints import HintSet, OperatorToggles
from repro.plans.physical import JoinType, ScanType
from repro.sql.binder import bind_sql
from repro.storage.database import Database
from repro.storage.index import OrderedIndex
from repro.storage.table_data import TableData

COUNT_QUERY = (
    "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
    "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id "
    "AND k.keyword = 'sequel' AND t.production_year > 2000"
)


@pytest.fixture(scope="module")
def engine_and_planner(imdb_db):
    return ExecutionEngine(imdb_db), Planner(imdb_db)


def brute_force_count(db, keyword: str, year: int) -> int:
    """Reference implementation of COUNT_QUERY using raw numpy joins."""
    title = db.table_data("title")
    mk = db.table_data("movie_keyword")
    kw = db.table_data("keyword")
    kw_code = kw.encode("keyword", keyword)
    keyword_ids = kw.column("id")[kw.column("keyword") == kw_code]
    title_ok = set(title.column("id")[title.column("production_year") > year].tolist())
    count = 0
    movie_ids = mk.column("movie_id")
    mk_keyword = mk.column("keyword_id")
    keyword_set = set(keyword_ids.tolist())
    for movie, keyword_id in zip(movie_ids.tolist(), mk_keyword.tolist()):
        if keyword_id in keyword_set and movie in title_ok:
            count += 1
    return count


def join_match_positions(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An equi-join's match as the join operators run it: counted, checked
    against the materialization cap, then expanded."""
    match = KeyMatch(left, right)
    operators._check_cap(match.total, "equi-join")
    return match.positions()


class TestJoinMatching:
    def test_join_match_positions_against_bruteforce(self):
        rng = np.random.default_rng(5)
        left = rng.integers(0, 20, 50).astype(np.int64)
        right = rng.integers(0, 20, 70).astype(np.int64)
        lp, rp = join_match_positions(left, right)
        got = sorted(zip(lp.tolist(), rp.tolist()))
        expected = sorted(
            (i, j) for i in range(50) for j in range(70) if left[i] == right[j]
        )
        assert got == expected

    def test_empty_inputs(self):
        lp, rp = join_match_positions(np.array([], dtype=np.int64), np.array([1], dtype=np.int64))
        assert lp.size == 0 and rp.size == 0


class TestCorrectness:
    def test_count_matches_bruteforce(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        plan = planner.plan(query)
        result = engine.execute(query, plan)
        expected = brute_force_count(imdb_db, "sequel", 2000)
        assert result.rows[0][0] == expected

    def test_all_plan_shapes_agree_on_result(self, imdb_db, engine_and_planner):
        """Every enumerated join tree of the same query must return the same count."""
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        counts = set()
        for plan in enumerate_join_trees(query, planner.cost_model):
            counts.add(engine.execute(query, plan).rows[0][0])
        assert len(counts) == 1

    def test_forced_orders_agree_on_result(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        results = set()
        for order in (["t", "mk", "k"], ["k", "mk", "t"], ["mk", "t", "k"]):
            plan = left_deep_plan_from_order(query, planner.cost_model, order)
            results.add(engine.execute(query, plan).rows[0][0])
        assert len(results) == 1

    def test_operator_toggles_do_not_change_results(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        baseline = engine.execute(query, planner.plan(query)).rows
        for toggles in (
            OperatorToggles(hashjoin=False),
            OperatorToggles(nestloop=False),
            OperatorToggles(indexscan=False, bitmapscan=False),
        ):
            plan = planner.plan(query, HintSet(toggles=toggles))
            assert engine.execute(query, plan).rows == baseline

    def test_min_aggregate_decodes_text(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(
            "SELECT MIN(k.keyword) FROM keyword AS k, movie_keyword AS mk "
            "WHERE mk.keyword_id = k.id",
            imdb_db.schema,
            name="min",
        )
        result = engine.execute(query, planner.plan(query))
        assert isinstance(result.rows[0][0], str)

    def test_group_by_produces_one_row_per_group(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(
            "SELECT kt.kind, COUNT(*) FROM kind_type AS kt, title AS t "
            "WHERE t.kind_id = kt.id GROUP BY kt.kind",
            imdb_db.schema,
            name="group",
        )
        result = engine.execute(query, planner.plan(query))
        kinds = [row[0] for row in result.rows]
        assert len(kinds) == len(set(kinds))
        assert sum(row[1] for row in result.rows) == imdb_db.table_data("title").row_count

    def test_empty_result_count_is_zero(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, kind_type AS kt WHERE t.kind_id = kt.id "
            "AND kt.kind = 'movie' AND t.production_year > 2100",
            imdb_db.schema,
            name="empty",
        )
        result = engine.execute(query, planner.plan(query))
        assert result.rows[0][0] == 0


class TestPlanCoverage:
    """A plan over other relations than the query's is refused, not run."""

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_partial_plan_is_refused_before_any_page_is_read(self, imdb_db, kind):
        engine = create_engine(imdb_db, kind=kind)
        cost_model = Planner(imdb_db).cost_model
        query = bind_sql(COUNT_QUERY, imdb_db.schema)
        partial = left_deep_plan_from_order(query, cost_model, ["t", "mk"])
        imdb_db.drop_caches()
        before = imdb_db.buffer_pool.snapshot()
        for plan in (partial, partial.left, partial.right):
            with pytest.raises(PlanError, match=r"missing=\['k'"):
                engine.execute(query, plan)
            with pytest.raises(PlanError, match="missing="):
                next(engine.runs(query, plan, 3))
        assert imdb_db.buffer_pool.snapshot() == before
        # The sub-plan is a complete plan of the sub-query it answers.
        sub_query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk "
            "WHERE t.id = mk.movie_id AND t.production_year > 2000",
            imdb_db.schema,
        )
        assert engine.execute(sub_query, partial).succeeded
        with pytest.raises(PlanError, match=r"extra=\['k'\]"):
            engine.execute(sub_query, left_deep_plan_from_order(query, cost_model, ["t", "mk", "k"]))


class TestCacheAndTiming:
    def test_cold_run_slower_than_hot_run(self, imdb_db):
        engine = ExecutionEngine(imdb_db)
        planner = Planner(imdb_db)
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        plan = planner.plan(query)
        imdb_db.drop_caches()
        first = engine.execute(query, plan).execution_time_ms
        second = engine.execute(query, plan).execution_time_ms
        third = engine.execute(query, plan).execution_time_ms
        assert first > second
        assert abs(second - third) / second < 0.15

    def test_timeout_flags_result(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        plan = planner.plan(query)
        result = engine.execute(query, plan, timeout_ms=0.0001)
        assert result.timed_out
        assert result.execution_time_ms == pytest.approx(0.0001)

    def test_timing_model_parallelism_speedup(self):
        metrics = OperatorMetrics(tuples_in=100_000, seq_pages_read=500)
        serial = TimingModel(SIMULATION_CONFIG.with_overrides(max_parallel_workers_per_gather=0))
        parallel = TimingModel(SIMULATION_CONFIG)
        assert parallel.execution_time_ms(metrics, with_noise=False) < serial.execution_time_ms(
            metrics, with_noise=False
        )

    def test_timing_model_noise_bounded(self):
        metrics = OperatorMetrics(tuples_in=10_000)
        model = TimingModel(SIMULATION_CONFIG, noise_sigma=0.02)
        times = [model.execution_time_ms(metrics) for _ in range(50)]
        spread = (max(times) - min(times)) / np.mean(times)
        assert spread < 0.25

    def test_metrics_merge_accumulates(self):
        a = OperatorMetrics(pages_hit=1, tuples_in=10)
        b = OperatorMetrics(pages_hit=2, cpu_ops=5)
        a.merge(b)
        assert a.pages_hit == 3 and a.cpu_ops == 5 and a.tuples_in == 10


# ---------------------------------------------------------------------------
# Brute-force oracle on small generated tables (incl. NULL-sentinel handling)
# ---------------------------------------------------------------------------


def _tiny_database() -> Database:
    """Three small tables whose join columns deliberately contain NULLs.

    ``child.parent_id`` and ``link.parent_id`` are both nullable foreign keys
    into ``parent`` — joining *child* to *link* therefore puts NULLs on both
    sides of the equi-join, the case where SQL semantics (NULL never equals
    NULL) and a naive sentinel match diverge.
    """
    rng = np.random.default_rng(12345)

    parent = Table(
        "parent",
        columns=[Column("id"), Column("category"), Column("score")],
    )
    child = Table(
        "child",
        columns=[Column("id"), Column("parent_id"), Column("kind")],
        indexes=[Index(table="child", column="parent_id"), Index(table="child", column="kind")],
    )
    link = Table(
        "link",
        columns=[Column("id"), Column("parent_id"), Column("weight")],
        indexes=[Index(table="link", column="parent_id")],
    )
    schema = Schema(
        "tiny-oracle",
        tables=[parent, child, link],
        foreign_keys=[
            ForeignKey("child", "parent_id", "parent", "id"),
            ForeignKey("link", "parent_id", "parent", "id"),
        ],
    )

    n_parent, n_child, n_link = 12, 40, 30

    def nullable_fk(size: int, null_frac: float) -> np.ndarray:
        column = rng.integers(1, n_parent + 1, size).astype(np.int64)
        column[rng.random(size) < null_frac] = NULL_SENTINEL
        return column

    kind = rng.integers(0, 9, n_child).astype(np.int64)
    kind[rng.random(n_child) < 0.2] = NULL_SENTINEL

    tables = {
        "parent": TableData(
            table=parent,
            columns={
                "id": np.arange(1, n_parent + 1, dtype=np.int64),
                "category": rng.integers(0, 3, n_parent).astype(np.int64),
                "score": rng.integers(0, 100, n_parent).astype(np.int64),
            },
        ),
        "child": TableData(
            table=child,
            columns={
                "id": np.arange(1, n_child + 1, dtype=np.int64),
                "parent_id": nullable_fk(n_child, 0.25),
                "kind": kind,
            },
        ),
        "link": TableData(
            table=link,
            columns={
                "id": np.arange(1, n_link + 1, dtype=np.int64),
                "parent_id": nullable_fk(n_link, 0.3),
                "weight": rng.integers(0, 50, n_link).astype(np.int64),
            },
        ),
    }
    return Database(schema=schema, tables=tables, config=SIMULATION_CONFIG)


def _oracle_filter_ok(data, predicate, row: int) -> bool:
    """SQL three-valued logic on one row: NULL fails everything but IS NULL."""
    value = int(data.column(predicate.column)[row])
    if predicate.op == "is_null":
        return value == NULL_SENTINEL
    if predicate.op == "is_not_null":
        return value != NULL_SENTINEL
    if value == NULL_SENTINEL:
        return False
    literal = data.encode(predicate.column, predicate.value)
    if predicate.op == "=":
        return value == literal
    if predicate.op == "!=":
        return value != literal
    if predicate.op == "<":
        return value < literal
    if predicate.op == "<=":
        return value <= literal
    if predicate.op == ">":
        return value > literal
    if predicate.op == ">=":
        return value >= literal
    raise NotImplementedError(predicate.op)


def oracle_tuples(db: Database, query) -> list[dict[str, int]]:
    """Reference evaluation: filters then an exhaustive nested-loop join."""
    filtered: list[tuple[str, list[int]]] = []
    for relation in query.relations:
        data = db.table_data(relation.table)
        predicates = query.filters_for(relation.alias)
        rows = [
            row
            for row in range(data.row_count)
            if all(_oracle_filter_ok(data, p, row) for p in predicates)
        ]
        filtered.append((relation.alias, rows))

    aliases = [alias for alias, _ in filtered]
    results = []
    for combo in itertools.product(*(rows for _, rows in filtered)):
        assignment = dict(zip(aliases, combo))
        ok = True
        for join in query.joins:
            left = int(
                db.table_data(query.table_of(join.left_alias)).column(join.left_column)[
                    assignment[join.left_alias]
                ]
            )
            right = int(
                db.table_data(query.table_of(join.right_alias)).column(join.right_column)[
                    assignment[join.right_alias]
                ]
            )
            if left == NULL_SENTINEL or right == NULL_SENTINEL or left != right:
                ok = False
                break
        if ok:
            results.append(assignment)
    return results


@pytest.fixture(scope="module")
def tiny_db():
    return _tiny_database()


@pytest.fixture(scope="module")
def tiny_engine(tiny_db):
    return ExecutionEngine(tiny_db)


class TestNestedLoopOracle:
    def _count(self, engine, db, sql: str):
        query = bind_sql(sql, db.schema, name="oracle")
        planner = Planner(db)
        result = engine.execute(query, planner.plan(query))
        return query, int(result.rows[0][0])

    def test_fk_join_with_nulls_matches_oracle(self, tiny_db, tiny_engine):
        sql = (
            "SELECT COUNT(*) FROM child AS c, parent AS p WHERE c.parent_id = p.id"
        )
        query, count = self._count(tiny_engine, tiny_db, sql)
        assert count == len(oracle_tuples(tiny_db, query))

    def test_null_on_both_sides_never_matches(self, tiny_db, tiny_engine):
        """child ⋈ link on two *nullable* columns: NULL = NULL must not match."""
        child_nulls = int(
            (tiny_db.table_data("child").column("parent_id") == NULL_SENTINEL).sum()
        )
        link_nulls = int(
            (tiny_db.table_data("link").column("parent_id") == NULL_SENTINEL).sum()
        )
        assert child_nulls > 0 and link_nulls > 0  # the test must exercise NULLs
        sql = "SELECT COUNT(*) FROM child AS c, link AS l WHERE c.parent_id = l.parent_id"
        query, count = self._count(tiny_engine, tiny_db, sql)
        expected = len(oracle_tuples(tiny_db, query))
        assert count == expected
        # Sanity: a sentinel-blind join would have overcounted by exactly the
        # number of NULL×NULL pairs.
        assert count + child_nulls * link_nulls > expected

    def test_three_way_join_all_plan_shapes_match_oracle(self, tiny_db, tiny_engine):
        sql = (
            "SELECT COUNT(*) FROM child AS c, parent AS p, link AS l "
            "WHERE c.parent_id = p.id AND l.parent_id = p.id AND p.score > 20"
        )
        query = bind_sql(sql, tiny_db.schema, name="oracle3")
        expected = len(oracle_tuples(tiny_db, query))
        planner = Planner(tiny_db)
        counts = {
            int(tiny_engine.execute(query, plan).rows[0][0])
            for plan in enumerate_join_trees(query, planner.cost_model)
        }
        assert counts == {expected}

    def test_filtered_join_matches_oracle(self, tiny_db, tiny_engine):
        sql = (
            "SELECT COUNT(*) FROM child AS c, parent AS p "
            "WHERE c.parent_id = p.id AND c.kind > 3 AND p.category = 1"
        )
        query, count = self._count(tiny_engine, tiny_db, sql)
        assert count == len(oracle_tuples(tiny_db, query))

    def test_is_null_filter_matches_oracle(self, tiny_db, tiny_engine):
        sql = "SELECT COUNT(*) FROM child AS c WHERE c.parent_id IS NULL"
        query, count = self._count(tiny_engine, tiny_db, sql)
        oracle = len(oracle_tuples(tiny_db, query))
        assert count == oracle > 0

    def test_index_scan_below_filter_excludes_nulls(self, tiny_db, tiny_engine):
        """`kind < 5` via an index range scan must not sweep in NULL rows."""
        sql = "SELECT COUNT(*) FROM child AS c WHERE c.kind < 5"
        query = bind_sql(sql, tiny_db.schema, name="below")
        planner = Planner(tiny_db)
        expected = len(oracle_tuples(tiny_db, query))
        counts = {}
        for scan_type in (ScanType.SEQ, ScanType.INDEX, ScanType.BITMAP):
            hints = HintSet(scan_methods={"c": scan_type})
            plan = planner.plan(query, hints)
            counts[scan_type] = int(tiny_engine.execute(query, plan).rows[0][0])
        assert counts == {
            ScanType.SEQ: expected,
            ScanType.INDEX: expected,
            ScanType.BITMAP: expected,
        }

    def test_forced_nestloop_uses_null_aware_index_probe(self, tiny_db, tiny_engine):
        """An index nested loop probing with NULL outer keys must skip them."""
        sql = "SELECT COUNT(*) FROM link AS l, child AS c WHERE l.parent_id = c.parent_id"
        query = bind_sql(sql, tiny_db.schema, name="inl")
        expected = len(oracle_tuples(tiny_db, query))
        planner = Planner(tiny_db)
        hints = HintSet(toggles=OperatorToggles(hashjoin=False, mergejoin=False))
        plan = planner.plan(query, hints)
        assert int(tiny_engine.execute(query, plan).rows[0][0]) == expected

    def test_index_nestloop_applies_every_non_probe_predicate(self):
        """Regression: a join predicate ahead of the probe must not be dropped.

        ``s.x = i.val`` has no index on the inner side, so the probe runs on
        the *second* predicate (``i.grp`` is indexed).  The executor used to
        take the outer probe keys from the first predicate and only apply
        ``predicates[1:]`` as post-join filters — probing the index with the
        wrong outer values and silently dropping the first join condition,
        which on this data turns 3 result rows into 0.  Index nested loop and
        hash join must agree with the brute-force oracle.
        """
        from repro.plans.physical import JoinNode, JoinType, ScanNode

        src = Table("src", columns=[Column("id"), Column("x"), Column("grp")])
        item = Table(
            "item",
            columns=[Column("id"), Column("grp"), Column("val")],
            indexes=[Index(table="item", column="grp")],
        )
        schema = Schema("probe-order", tables=[src, item])
        db = Database(
            schema=schema,
            tables={
                "src": TableData(
                    table=src,
                    columns={
                        "id": np.array([1, 2, 3, 4, 5], dtype=np.int64),
                        "x": np.array([10, 30, 10, 1, 10], dtype=np.int64),
                        "grp": np.array([1, 1, 2, 2, NULL_SENTINEL], dtype=np.int64),
                    },
                ),
                "item": TableData(
                    table=item,
                    columns={
                        "id": np.array([1, 2, 3, 4], dtype=np.int64),
                        "grp": np.array([1, 1, 2, NULL_SENTINEL], dtype=np.int64),
                        "val": np.array([10, 30, 10, 10], dtype=np.int64),
                    },
                ),
            },
            config=SIMULATION_CONFIG,
        )
        engine = ExecutionEngine(db)
        sql = "SELECT COUNT(*) FROM src AS s, item AS i WHERE s.x = i.val AND s.grp = i.grp"
        query = bind_sql(sql, db.schema, name="multi-pred")
        expected = len(oracle_tuples(db, query))
        predicates = tuple(query.joins)
        assert predicates[0].column_for("i") == "val"  # unindexed: probe is predicates[1]
        assert db.index("item", "val") is None and db.index("item", "grp") is not None

        outer = ScanNode(alias="s", table="src")
        inner = ScanNode(alias="i", table="item")
        counts = {}
        for join_type in (JoinType.NESTED_LOOP, JoinType.HASH):
            plan = JoinNode(join_type=join_type, left=outer, right=inner, predicates=predicates)
            counts[join_type] = int(engine.execute(query, plan).rows[0][0])
        assert counts[JoinType.NESTED_LOOP] == counts[JoinType.HASH] == expected > 0

    def test_group_by_matches_oracle(self, tiny_db, tiny_engine):
        sql = (
            "SELECT p.category, COUNT(*) FROM parent AS p, child AS c "
            "WHERE c.parent_id = p.id GROUP BY p.category"
        )
        query = bind_sql(sql, tiny_db.schema, name="group-oracle")
        tuples = oracle_tuples(tiny_db, query)
        category_column = tiny_db.table_data("parent").column("category")
        expected: dict[int, int] = {}
        for assignment in tuples:
            category = int(category_column[assignment["p"]])
            expected[category] = expected.get(category, 0) + 1
        planner = Planner(tiny_db)
        result = tiny_engine.execute(query, planner.plan(query))
        got = {int(row[0]): int(row[1]) for row in result.rows}
        assert got == expected


class TestMaterializationCap:
    """A join that would expand past ``MAX_CROSS_PRODUCT_TUPLES`` fails as an
    ``ExecutionError`` before allocating the expansion, never as a host ``MemoryError``."""

    #: 2,000 equal keys on both sides: 4,000,000 matches, 32 MB per position array.
    KEYS = 2_000
    MATCHES = KEYS * KEYS

    def _peak_bytes(self, call) -> int:
        tracemalloc.start()
        try:
            with pytest.raises(ExecutionError, match="materialization cap"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_equi_join_expansion_is_refused_before_allocation(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_CROSS_PRODUCT_TUPLES", 1_000)
        keys = np.zeros(self.KEYS, dtype=np.int64)
        peak = self._peak_bytes(lambda: join_match_positions(keys, keys))
        assert peak < self.MATCHES * 8 // 10

    def test_index_probe_expansion_is_refused_before_allocation(self):
        index = OrderedIndex("t", "c", np.zeros(self.KEYS, dtype=np.int64))
        keys = np.zeros(self.KEYS, dtype=np.int64)
        peak = self._peak_bytes(lambda: index.probe_many(keys, max_matches=1_000))
        assert peak < self.MATCHES * 8 // 10
        assert index.probe_many(keys[:2], max_matches=self.KEYS * 2).expand()[1].size == self.KEYS * 2

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_oversized_join_is_an_aborted_run_in_both_representations(self, imdb_db, kind, monkeypatch):
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk WHERE t.id = mk.movie_id",
            imdb_db.schema,
        )
        cost_model = Planner(imdb_db).cost_model
        pair = frozenset({"t", "mk"})
        plans = {
            join_type: left_deep_plan_from_order(
                query, cost_model, ["t", "mk"], HintSet(join_methods={pair: join_type})
            )
            for join_type in (JoinType.HASH, JoinType.NESTED_LOOP)
        }
        assert index_nestloop_inner(imdb_db, plans[JoinType.NESTED_LOOP]) is not None
        engine = create_engine(imdb_db, kind=kind)
        uncapped = {join_type: engine.execute(query, plan) for join_type, plan in plans.items()}
        assert all(result.succeeded for result in uncapped.values())
        monkeypatch.setattr(operators, "MAX_CROSS_PRODUCT_TUPLES", 10)
        for join_type, plan in plans.items():
            result = engine.execute(query, plan)
            assert result.timed_out and not result.rows, join_type
            assert "materialization cap" in result.evaluation.error, join_type


class TestExplain:
    def test_explain_plan_text(self, imdb_db, engine_and_planner):
        _, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        text = explain_plan(planner.plan(query))
        assert "Scan" in text and "rows=" in text

    def test_explain_analyze_structure(self, imdb_db, engine_and_planner):
        engine, planner = engine_and_planner
        query = bind_sql(COUNT_QUERY, imdb_db.schema, name="count")
        result = planner.plan_with_info(query)
        execution = engine.execute(query, result.plan)
        payload = explain_analyze(result.plan, execution, result.planning_time_ms)
        assert payload["planning_time_ms"] == result.planning_time_ms
        assert payload["plan"]["children"]
        text = explain_analyze_text(result.plan, execution, result.planning_time_ms)
        assert "Execution Time" in text and "Planning Time" in text
