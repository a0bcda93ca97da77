"""One data pass, k charges: the shared repeat loop equals k plain executions.

``ExecutionEngine.execute`` is a data pass (plan walk, operators, finalize)
followed by a charge (replay the recorded page accesses through the buffer
pool, draw the noise); ``ExecutionEngine.runs`` hands the first run's
evaluation to the later runs.  Nothing a caller can observe may tell the two
apart: for every plan, k runs through the loop and k independent ``execute``
calls started from the same pool state and noise seed agree on every result
field, on the pool they leave behind and on the next noise draw.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.executor as executor_package
from repro.core.execution_protocol import ExecutionProtocol
from repro.errors import ExecutionError, ExperimentError
from repro.executor.columnar import ColumnarExecutionEngine
from repro.executor.engine import create_engine
from repro.executor.operators import (
    MAX_CROSS_PRODUCT_TUPLES,
    OperatorMetrics,
    index_nestloop_inner,
)
from repro.lqo.base import LQOEnvironment
from repro.optimizer.planner import Planner
from repro.plans.physical import JoinNode, JoinType, ScanNode
from repro.sql.binder import JoinPredicate, bind_sql
from repro.storage.buffer_pool import BufferPool
from tests.test_executor import _tiny_database
from tests.test_fuzz_engines import make_generator

NOISE_SEED = 99
ENGINE_KINDS = ("row", "columnar")
JOB_SAMPLE = ("1a", "2a", "3b", "6a", "8c", "10a", "13b", "16a", "17e", "19d", "25a", "32a")


def observed(result) -> tuple:
    """Every caller-visible field of one run."""
    return (
        result.rows,
        result.row_count,
        result.execution_time_ms,
        dict(result.metrics.__dict__),
        dict(result.node_actual_rows),
        result.timed_out,
        result.error,
    )


def reset(engine) -> None:
    """Cold pool, zeroed pool counters, rewound noise stream."""
    engine.database.drop_caches()
    engine.database.buffer_pool.stats.reset()
    engine.timing.reseed(NOISE_SEED)


def pool_state(engine) -> tuple:
    """Resident pages per relation, their LRU order and the pool's counters."""
    pool = engine.database.buffer_pool
    stats = pool.stats
    # LRU order included: a replay in another order could keep the counts and
    # still evict different pages next time.
    return pool.snapshot(), list(pool._pages), (stats.hits, stats.misses, stats.evictions)


def end_state(engine) -> tuple:
    """What a sequence of runs leaves behind: the pool and the noise position (consumes a draw)."""
    return pool_state(engine), engine.timing.execution_time_ms(OperatorMetrics())


def independent_runs(engine, query, plan, k: int, timeout_ms=None) -> tuple[list, tuple]:
    reset(engine)
    results = [engine.execute(query, plan, timeout_ms=timeout_ms) for _ in range(k)]
    return [observed(result) for result in results], end_state(engine)


def looped_runs(engine, query, plan, k: int, timeout_ms=None) -> tuple[list, tuple]:
    reset(engine)
    results = list(engine.runs(query, plan, k, timeout_ms))
    return [observed(result) for result in results], end_state(engine)


def assert_loop_equals_independent(database, planned, capacities) -> None:
    """``planned`` is a list of (query, plan) on ``database``."""
    for kind in ENGINE_KINDS:
        engine = create_engine(database, kind=kind)
        for capacity in capacities:
            database.buffer_pool = BufferPool(capacity)
            for query, plan in planned:
                for k in (1, 3, 7):
                    expected = independent_runs(engine, query, plan, k)
                    actual = looped_runs(engine, query, plan, k)
                    assert actual == expected, (kind, capacity, query.name, k)


@pytest.fixture(scope="module")
def job_db(imdb_db):
    """Private buffer-pool view of the session database (these tests swap pools)."""
    return imdb_db.with_config(imdb_db.config)


@pytest.fixture(scope="module")
def job_planned(job_db, job_workload):
    planner = Planner(job_db)
    return [
        (job_workload.by_id(qid).bound, planner.plan(job_workload.by_id(qid).bound))
        for qid in JOB_SAMPLE
    ]


class TestLoopEqualsIndependentRuns:
    def test_random_sql_corpus(self):
        """Inner/LEFT/FULL joins, aggregates and GROUP BY, on both engines."""
        database = _tiny_database()
        generator = make_generator(database.schema)
        planner = Planner(database)
        planned = []
        for index in range(30):
            query = bind_sql(generator.sql(index), database.schema, name=f"loop_{index}")
            planned.append((query, planner.plan(query)))
        assert any("LEFT" in generator.sql(i) or "FULL" in generator.sql(i) for i in range(30))
        assert any("GROUP BY" in generator.sql(i) for i in range(30))
        # Every tiny table is one page: a 2-page pool evicts on any 3-table plan.
        assert_loop_equals_independent(database, planned, capacities=(1024, 2))

    def test_job_sample_with_and_without_evictions(self, job_db, job_planned):
        """A pool of 8 pages is smaller than one query's footprint: every run evicts."""
        assert_loop_equals_independent(job_db, job_planned, capacities=(1024, 8))
        engine = create_engine(job_db)
        job_db.buffer_pool = BufferPool(8)
        reset(engine)
        list(engine.runs(*job_planned[0], 3))
        assert job_db.buffer_pool.stats.evictions > 0

    def test_runs_share_no_mutable_state(self, job_db, job_planned):
        job_db.buffer_pool = BufferPool(1024)
        query, plan = job_planned[0]
        first, second, third = create_engine(job_db).runs(query, plan, 3)
        assert first.evaluation is second.evaluation is third.evaluation
        for a, b in ((first, second), (second, third), (first, third)):
            assert a is not b
            assert a.metrics is not b.metrics
            assert a.node_actual_rows is not b.node_actual_rows
            assert a.rows is not b.rows
        # The evaluation keeps the pool-independent part only.
        evaluation = first.evaluation
        assert evaluation.metrics.pages_hit == 0
        assert evaluation.metrics.seq_pages_read == evaluation.metrics.random_pages_read == 0
        first.metrics.cpu_ops += 1
        first.node_actual_rows.clear()
        assert second.metrics.cpu_ops == evaluation.metrics.cpu_ops
        assert second.node_actual_rows == evaluation.node_actual_rows != {}


def heap_relations_in_walk_order(database, node) -> list[str]:
    """The order contract, spelled out: left subtree, index-nested-loop probe, right subtree."""
    if isinstance(node, ScanNode):
        return [node.table]
    if isinstance(node, JoinNode):
        left = heap_relations_in_walk_order(database, node.left)
        if index_nestloop_inner(database, node) is not None:
            return left + [node.right.table]
        return left + heap_relations_in_walk_order(database, node.right)
    return heap_relations_in_walk_order(database, node.child)


class TestReplayOrder:
    def test_every_run_accesses_the_pool_in_plan_walk_order(self, job_db, job_planned, monkeypatch):
        """The pool is an LRU: under eviction another order changes later hits and misses."""
        job_db.buffer_pool = BufferPool(8)
        engine = create_engine(job_db)
        touched: list[str] = []
        original = BufferPool.access_pages

        def spying(self, relation, *args, **kwargs):
            touched.append(relation)
            return original(self, relation, *args, **kwargs)

        monkeypatch.setattr(BufferPool, "access_pages", spying)
        order_matters = False
        for query, plan in job_planned:
            expected = heap_relations_in_walk_order(job_db, plan)
            order_matters |= expected != expected[::-1]
            touched.clear()
            list(engine.runs(query, plan, 2))
            assert touched == expected + expected, query.name
        assert order_matters


class TestTimeoutsAndErrors:
    def test_first_run_times_out_and_the_protocol_stops(self, job_db, job_planned):
        """A timeout between the cold and the hot time: run 1 times out, the loop ends."""
        job_db.buffer_pool = BufferPool(1024)
        engine = create_engine(job_db)
        for query, plan in job_planned:
            (cold, hot), _ = independent_runs(engine, query, plan, 2)
            if hot[2] < 0.9 * cold[2]:
                break
        else:  # pragma: no cover - the sample always has a cache-sensitive query
            pytest.fail("no query with a cold/hot gap")
        timeout_ms = (cold[2] + hot[2]) / 2.0

        # Never-stopping callers: later runs beat the timeout.
        expected = independent_runs(engine, query, plan, 3, timeout_ms)
        assert [run[5] for run in expected[0]] == [True, False, False]
        assert expected[0][0][2] == timeout_ms
        assert looped_runs(engine, query, plan, 3, timeout_ms) == expected

        # measure_plan stops after the first timed-out run; the environment counts it.
        one_run = independent_runs(engine, query, plan, 1, timeout_ms)
        protocol = ExecutionProtocol(job_db, engine=engine, cold_start=False)
        reset(engine)
        measured = protocol.measure_plan(query, plan, timeout_ms=timeout_ms)
        assert measured.timed_out and measured.execution_times_ms == [timeout_ms]
        assert end_state(engine) == one_run[1]

        env = LQOEnvironment(job_db, seed=0)
        reset(env.engine)
        executed = env.execute_plan(query, plan, runs=3, timeout_ms=timeout_ms)
        assert executed.timed_out and executed.execution_times_ms == [timeout_ms]
        assert env.executed_plan_count == 1

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_cross_product_over_the_cap_charges_and_draws_no_noise(self, job_db, kind):
        job_db.buffer_pool = BufferPool(1024)
        engine = create_engine(job_db, kind=kind)
        query = bind_sql("SELECT COUNT(*) FROM cast_info AS a, cast_info AS b", job_db.schema)
        scans = [ScanNode(alias=alias, table="cast_info") for alias in ("a", "b")]
        rows = job_db.table_data("cast_info").row_count
        assert rows * rows > MAX_CROSS_PRODUCT_TUPLES
        plan = JoinNode(join_type=JoinType.NESTED_LOOP, left=scans[0], right=scans[1])

        expected = independent_runs(engine, query, plan, 3)
        assert looped_runs(engine, query, plan, 3) == expected
        pages = job_db.table_data("cast_info").page_count
        for run, (hits, misses) in zip(expected[0], ((pages, pages), (2 * pages, 0), (2 * pages, 0))):
            rows_out, row_count, elapsed, metrics, node_rows, timed_out, error = run
            assert (rows_out, row_count, elapsed, timed_out) == ([], 0, 60_000.0, True)
            assert "materialization cap" in error
            # Both scans finished before the join raised: they are charged.
            assert (metrics["pages_hit"], metrics["seq_pages_read"]) == (hits, misses)
            assert set(node_rows) == {id(scan) for scan in scans}
        # No noise was consumed: the next draw is the first of the stream.
        engine.timing.reseed(NOISE_SEED)
        assert expected[1][1] == engine.timing.execution_time_ms(OperatorMetrics())
        assert looped_runs(engine, query, plan, 2, timeout_ms=500.0)[0][1][2] == 500.0

    def test_failing_index_nestloop_records_nothing(self, job_db):
        """A predicate that does not connect the joined relations is rejected
        before the inner heap access: only the finished outer scan is charged."""
        job_db.buffer_pool = BufferPool(1024)
        engine = create_engine(job_db)
        query = bind_sql(
            "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk WHERE t.id = mk.movie_id",
            job_db.schema,
        )
        outer = ScanNode(alias="t", table="title")
        inner = ScanNode(alias="mk", table="movie_keyword")
        probe = JoinPredicate("t", "id", "mk", "movie_id")
        plan = JoinNode(
            join_type=JoinType.NESTED_LOOP, left=outer, right=inner, predicates=(probe,)
        )
        assert job_db.index("movie_keyword", "movie_id") is not None
        reset(engine)
        assert engine.execute(query, plan).succeeded  # the well-formed plan probes the index
        assert job_db.buffer_pool.resident_pages_of("movie_keyword") > 0

        # JoinNode validates its predicates, so malform it behind its back.
        stray = JoinPredicate("t", "kind_id", "kt", "id")
        object.__setattr__(plan, "predicates", (probe, stray))
        reset(engine)
        result = engine.execute(query, plan)
        assert result.timed_out and "does not connect" in result.error
        pool = job_db.buffer_pool
        title_pages = job_db.table_data("title").page_count
        assert pool.snapshot() == {"title": title_pages}
        assert (pool.stats.hits, pool.stats.misses) == (0, title_pages)
        assert result.metrics.seq_pages_read == title_pages
        assert result.metrics.random_pages_read == result.metrics.pages_hit == 0
        assert set(result.node_actual_rows) == {id(outer)}


class TestHandedInEvaluationIsChecked:
    def test_another_plan_query_engine_or_database_is_refused(self, job_db, job_planned):
        job_db.buffer_pool = BufferPool(1024)
        engine = create_engine(job_db)
        (query, plan), (other_query, other_plan) = job_planned[:2]
        evaluation = engine.execute(query, plan).evaluation
        assert engine.execute(query, plan, evaluation=evaluation).succeeded

        same_plan_again = Planner(job_db).plan(query)
        assert same_plan_again == plan and same_plan_again is not plan
        other_database = job_db.with_config(job_db.config)
        refused = (
            (engine, other_query, other_plan),
            (engine, query, other_plan),
            (engine, other_query, plan),
            (engine, query, same_plan_again),  # equal is not enough: ids key node_actual_rows
            (create_engine(job_db), query, plan),
            (create_engine(job_db, kind="row"), query, plan),
            (create_engine(other_database), query, plan),
        )
        for candidate, q, p in refused:
            before = pool_state(candidate)
            with pytest.raises(ExecutionError, match="belongs to another"):
                candidate.execute(q, p, evaluation=evaluation)
            assert pool_state(candidate) == before


class TestRunCounts:
    """``None`` means the default; anything below one run is an error, everywhere."""

    @pytest.mark.parametrize("count", (0, -1))
    def test_fewer_than_one_run_raises(self, job_db, job_planned, job_workload, count):
        job_db.buffer_pool = BufferPool(1024)
        query, plan = job_planned[0]
        protocol = ExecutionProtocol(job_db)
        env = LQOEnvironment(job_db, seed=0)
        job_db.buffer_pool.warm("title", 1)
        with pytest.raises(ExperimentError):
            protocol.measure_plan(query, plan, executions=count)
        with pytest.raises(ExperimentError):
            env.execute_plan(query, plan, runs=count, cold_start=True)
        # Rejected before any side effect: no cache drop, no execution counted.
        assert job_db.buffer_pool.snapshot() == {"title": 1}
        assert env.executed_plan_count == 0
        with pytest.raises(ExperimentError):
            protocol.robustness_study(job_workload, executions=count, query_ids=["1a"])
        with pytest.raises(ExperimentError):
            protocol.engine.runs(query, plan, count)

    def test_none_means_the_default(self, job_db, job_planned):
        query, plan = job_planned[0]
        protocol = ExecutionProtocol(job_db, executions_per_query=4)
        assert len(protocol.measure_plan(query, plan).execution_times_ms) == 4
        assert len(protocol.measure_plan(query, plan, executions=1).execution_times_ms) == 1
        env = LQOEnvironment(job_db, seed=0)
        measured = env.execute_plan(query, plan)
        assert len(measured.execution_times_ms) == env.protocol.executions_per_query == 3


class TestRobustnessStudy:
    def test_fifty_executions_equal_fifty_plain_executes(self, job_db, job_workload):
        job_db.buffer_pool = BufferPool(1024)
        query_ids = ["1a", "2a", "3a"]
        protocol = ExecutionProtocol(job_db)
        engine = protocol.engine

        reset(engine)
        expected = []
        for qid in query_ids:
            bound = job_workload.by_id(qid).bound
            plan = protocol.planner.plan(bound)
            expected.append([engine.execute(bound, plan).execution_time_ms for _ in range(50)])
        expected_state = end_state(engine)

        engine.timing.reseed(NOISE_SEED)
        job_db.buffer_pool.stats.reset()  # robustness_study drops the caches itself
        measurements = protocol.robustness_study(job_workload, executions=50, query_ids=query_ids)
        assert [m.execution_times_ms for m in measurements] == expected
        assert end_state(engine) == expected_state


class TestSingleChargeSite:
    def test_the_buffer_pool_is_referenced_from_one_place_in_the_executor(self):
        sites = []
        for path in sorted(Path(executor_package.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "buffer_pool":
                    sites.append((path.name, node.lineno))
        assert len(sites) == 1 and sites[0][0] == "engine.py", sites

    def test_the_columnar_engine_is_still_only_a_representation(self):
        public = {name for name in ColumnarExecutionEngine.__dict__ if not name.startswith("__")}
        assert public == {"kind", "batch_type"}

    def test_every_run_goes_through_execute_and_access_pages(self, job_db, job_planned, monkeypatch):
        """The benchmark tracer wraps these class attributes: the loop must not bypass them."""
        job_db.buffer_pool = BufferPool(1024)
        calls = {"execute": 0, "access_pages": 0}
        engine = create_engine(job_db)
        original_execute = type(engine).execute
        original_access = BufferPool.access_pages

        def counting_execute(self, *args, **kwargs):
            calls["execute"] += 1
            return original_execute(self, *args, **kwargs)

        def counting_access(self, *args, **kwargs):
            calls["access_pages"] += 1
            return original_access(self, *args, **kwargs)

        monkeypatch.setattr(type(engine), "execute", counting_execute)
        monkeypatch.setattr(BufferPool, "access_pages", counting_access)
        query, plan = job_planned[0]
        protocol = ExecutionProtocol(job_db, engine=engine)
        protocol.measure_plan(query, plan, executions=5)
        accesses = len(engine.execute(query, plan).evaluation.accesses)
        assert calls["execute"] == 5 + 1
        assert accesses > 0 and calls["access_pages"] == 6 * accesses
