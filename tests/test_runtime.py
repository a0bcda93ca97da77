"""Tests for the experiment runtime: fingerprints, plan cache, result store, parallel runner."""

import ast
import importlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import simclock
from repro.config import EXECUTOR_KINDS, RuntimeConfig, SIMULATION_CONFIG, PostgresConfig
from repro.core.covariate_shift import run_covariate_shift_study
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.core.report import store_report, summary_rows_from_store
from repro.core.splits import DatasetSplit, SplitSampling, generate_split
from repro.errors import ExperimentError
from repro.experiments import figure4
from repro.experiments.common import BenchmarkContext, imdb_half_database, job_context
from repro.lqo.base import LQOEnvironment
from repro.lqo.registry import create_optimizer
from repro.optimizer.planner import Planner
from repro.plans.hints import HintSet, OperatorToggles
from repro.plans.physical import JoinType
from repro.runtime import parallel
from repro.runtime.fingerprint import query_fingerprint, stable_seed
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.plan_cache import PlanCache
from repro.runtime.result_store import ResultStore, TaskKey
from repro.sql.binder import bind_sql
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_workload

THREE_WAY = (
    "SELECT COUNT(*) FROM title AS t, movie_keyword AS mk, keyword AS k "
    "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id "
    "AND k.keyword = 'sequel' AND t.production_year > 2000"
)

OTHER_THREE_WAY = THREE_WAY.replace("2000", "1990")

TWO_WAY = (
    "SELECT COUNT(*) FROM title AS t, movie_companies AS mc WHERE t.id = mc.movie_id"
)


def run_result_as_json(result: MethodRunResult) -> str:
    """Canonical byte-level rendering used for exact-equality assertions."""
    return json.dumps(result.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_equal_configs_equal_fingerprints(self):
        a = PostgresConfig(work_mem=8 * 1024 * 1024)
        b = PostgresConfig(work_mem=8 * 1024 * 1024)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_mutated_knob_changes_fingerprint(self):
        base = SIMULATION_CONFIG
        for knob, value in (
            ("work_mem", base.work_mem * 2),
            ("geqo_threshold", base.geqo_threshold + 1),
            ("enable_hashjoin", not base.enable_hashjoin),
            ("random_page_cost", base.random_page_cost + 0.5),
        ):
            mutated = base.with_overrides(**{knob: value})
            assert mutated.fingerprint() != base.fingerprint(), knob

    def test_hint_fingerprint_ignores_display_name(self):
        a = HintSet(toggles=OperatorToggles(hashjoin=False), name="arm-1")
        b = HintSet(toggles=OperatorToggles(hashjoin=False), name="arm-2")
        assert a.fingerprint() == b.fingerprint()

    def test_hint_fingerprint_sensitive_to_content(self):
        empty = HintSet()
        assert empty.fingerprint() != HintSet(toggles=OperatorToggles(nestloop=False)).fingerprint()
        assert (
            HintSet.from_join_order(["a", "b"]).fingerprint()
            != HintSet.from_join_order(["b", "a"]).fingerprint()
        )
        assert (
            HintSet.from_join_order(["a", "b"]).fingerprint()
            != HintSet.from_leading_prefix(["a", "b"]).fingerprint()
        )

    def test_hint_fingerprint_order_independent_mappings(self):
        jm1 = {frozenset({"a", "b"}): JoinType.HASH, frozenset({"a", "b", "c"}): JoinType.MERGE}
        jm2 = {frozenset({"a", "b", "c"}): JoinType.MERGE, frozenset({"a", "b"}): JoinType.HASH}
        a = HintSet(leading=("a", "b", "c"), join_methods=jm1)
        b = HintSet(leading=("a", "b", "c"), join_methods=jm2)
        assert a.fingerprint() == b.fingerprint()

    def test_query_fingerprint_stable_across_rebinding(self, imdb_db):
        a = bind_sql(THREE_WAY, imdb_db.schema, name="first")
        b = bind_sql(THREE_WAY, imdb_db.schema, name="second")
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_both_from_forms_of_a_query_fingerprint_and_plan_alike(self, imdb_db):
        comma = bind_sql(THREE_WAY, imdb_db.schema)
        explicit = bind_sql(
            "SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id "
            "JOIN keyword AS k ON mk.keyword_id = k.id "
            "WHERE k.keyword = 'sequel' AND t.production_year > 2000",
            imdb_db.schema,
        )
        assert query_fingerprint(comma) == query_fingerprint(explicit)
        plans = [Planner(imdb_db, plan_cache=PlanCache()).plan(query) for query in (comma, explicit)]
        assert pickle.dumps(plans[0]) == pickle.dumps(plans[1])

    def test_query_fingerprint_sensitive_to_literals(self, imdb_db):
        a = bind_sql(THREE_WAY, imdb_db.schema)
        b = bind_sql(OTHER_THREE_WAY, imdb_db.schema)
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_stable_seed_deterministic_and_bounded(self):
        assert stable_seed(0, "bao", "random-0", 1) == stable_seed(0, "bao", "random-0", 1)
        assert stable_seed(0, "bao", "random-0", 1) != stable_seed(0, "bao", "random-0", 2)
        assert 0 <= stable_seed("anything") < 2**31


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_and_miss_accounting(self, imdb_db):
        cache = PlanCache()
        planner = Planner(imdb_db, plan_cache=cache)
        query = bind_sql(THREE_WAY, imdb_db.schema)
        first = planner.plan_with_info(query)
        assert cache.stats.misses == 1 and cache.stats.hits == 0 and len(cache) == 1
        second = planner.plan_with_info(query)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert first is second

    def test_cache_shared_across_planners(self, imdb_db):
        cache = PlanCache()
        query = bind_sql(THREE_WAY, imdb_db.schema)
        Planner(imdb_db, plan_cache=cache).plan_with_info(query)
        # A second planner with an identical configuration hits immediately —
        # and so does a rebinding of the same SQL text (content keying).
        rebound = bind_sql(THREE_WAY, imdb_db.schema)
        Planner(imdb_db, plan_cache=cache).plan_with_info(rebound)
        assert cache.stats.hits == 1

    def test_config_knob_change_invalidates(self, imdb_db):
        cache = PlanCache()
        query = bind_sql(THREE_WAY, imdb_db.schema)
        Planner(imdb_db, SIMULATION_CONFIG, plan_cache=cache).plan_with_info(query)
        changed = SIMULATION_CONFIG.with_overrides(work_mem=SIMULATION_CONFIG.work_mem * 4)
        Planner(imdb_db, changed, plan_cache=cache).plan_with_info(query)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert len(cache) == 2

    def test_hint_change_invalidates_but_renaming_does_not(self, imdb_db):
        cache = PlanCache()
        planner = Planner(imdb_db, plan_cache=cache)
        query = bind_sql(THREE_WAY, imdb_db.schema)
        planner.plan_with_info(query, HintSet(toggles=OperatorToggles(hashjoin=False), name="a"))
        planner.plan_with_info(query, HintSet(toggles=OperatorToggles(hashjoin=False), name="b"))
        assert cache.stats.hits == 1  # same content, different display name
        planner.plan_with_info(query, HintSet(toggles=OperatorToggles(nestloop=False)))
        assert cache.stats.misses == 2

    def test_lru_eviction(self, imdb_db):
        cache = PlanCache(max_entries=2)
        planner = Planner(imdb_db, plan_cache=cache)
        q1 = bind_sql(THREE_WAY, imdb_db.schema)
        q2 = bind_sql(OTHER_THREE_WAY, imdb_db.schema)
        q3 = bind_sql(TWO_WAY, imdb_db.schema)
        planner.plan_with_info(q1)
        planner.plan_with_info(q2)
        planner.plan_with_info(q3)  # evicts q1 (least recently used)
        assert len(cache) == 2 and cache.stats.evictions == 1
        planner.plan_with_info(q1)
        assert cache.stats.misses == 4

    def test_zero_capacity_disables_caching(self, imdb_db):
        cache = PlanCache(max_entries=0)
        planner = Planner(imdb_db, plan_cache=cache)
        query = bind_sql(THREE_WAY, imdb_db.schema)
        planner.plan_with_info(query)
        planner.plan_with_info(query)
        assert len(cache) == 0 and cache.stats.hits == 0 and cache.stats.misses == 2

    def test_cache_scoped_by_database_identity(self, imdb_db):
        """Two planners over different databases must not share entries."""
        cache = PlanCache()
        half = imdb_db.sample_copy({"movie_keyword": 0.5}, seed=3)
        query = bind_sql(THREE_WAY, imdb_db.schema)
        Planner(imdb_db, plan_cache=cache).plan_with_info(query)
        Planner(half, plan_cache=cache).plan_with_info(query)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_cache_scoped_by_database_spec(self):
        """Two data seeds of one generator and scale have the same name and row
        count but other data: a planner over the second must miss."""
        first, second = (
            get_process_registry().get(DatabaseSpec.create("imdb", scale=0.05, seed=seed, config=SIMULATION_CONFIG))
            for seed in (42, 43)
        )
        assert (first.name, first.total_rows()) == (second.name, second.total_rows())
        cache = PlanCache()
        query = bind_sql(THREE_WAY, first.schema)
        Planner(first, plan_cache=cache).plan_with_info(query)
        Planner(second, plan_cache=cache).plan_with_info(query)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        Planner(first, plan_cache=cache).plan_with_info(query)
        assert cache.stats.hits == 1

    def test_cache_scoped_by_geqo_parameters(self, imdb_db):
        from repro.optimizer.geqo import GeqoParameters

        cache = PlanCache()
        query = bind_sql(THREE_WAY, imdb_db.schema)
        Planner(imdb_db, plan_cache=cache).plan_with_info(query)
        Planner(
            imdb_db, plan_cache=cache, geqo_parameters=GeqoParameters(seed=99)
        ).plan_with_info(query)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_runtime_zero_cache_entries_disables_caching(self, imdb_db, job_workload, grid_splits):
        runner = make_runner(imdb_db, job_workload, workers=1)
        runner.plan_cache = PlanCache(0)
        task = runner.tasks_for(("postgres",), grid_splits[:1])[0]
        env = runner._task_runner(task).build_environment()
        assert env.planner.plan_cache is runner.plan_cache
        runner.run_task(task)
        assert len(runner.plan_cache) == 0 and runner.plan_cache.stats.hits == 0
        assert runner.plan_cache.stats.misses > 0

    def test_cached_plan_identical_to_fresh_plan(self, imdb_db):
        query = bind_sql(THREE_WAY, imdb_db.schema)
        cached_planner = Planner(imdb_db, plan_cache=PlanCache())
        warm = cached_planner.plan_with_info(query)
        again = cached_planner.plan_with_info(query)
        fresh = Planner(imdb_db, plan_cache=PlanCache(max_entries=0)).plan_with_info(query)
        assert again.estimated_cost == fresh.estimated_cost
        assert again.strategy == fresh.strategy
        assert warm.plan.label() == fresh.plan.label()


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


def _sample_result() -> MethodRunResult:
    return MethodRunResult(
        method="postgres",
        split_name="random-0",
        workload_name="job",
        training_time_s=1.25,
        executed_training_plans=7,
        timings=[
            QueryTiming(
                query_id="1a",
                method="postgres",
                inference_time_ms=0.0,
                planning_time_ms=1.5,
                execution_time_ms=20.25,
                timed_out=False,
                num_joins=3,
                metadata={"strategy": "dynamic-programming"},
            ),
            QueryTiming(
                query_id="1b",
                method="postgres",
                inference_time_ms=0.5,
                planning_time_ms=2.0,
                execution_time_ms=60000.0,
                timed_out=True,
                num_joins=4,
            ),
        ],
    )


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = TaskKey("job", "random-0", "postgres", seed=3)
        store.save(key, _sample_result(), context_fingerprint="ctx")
        loaded = store.load(key, context_fingerprint="ctx")
        assert loaded.to_dict() == _sample_result().to_dict()
        assert loaded.timings[1].timed_out is True

    def test_skip_existing_resume(self, tmp_path):
        store = ResultStore(tmp_path)
        key = TaskKey("job", "random-0", "postgres")
        calls = []

        def thunk():
            calls.append(1)
            return _sample_result()

        first, resumed_first = store.load_or_run(key, thunk, "ctx")
        second, resumed_second = store.load_or_run(key, thunk, "ctx")
        assert (resumed_first, resumed_second) == (False, True)
        assert len(calls) == 1
        assert run_result_as_json(first) == run_result_as_json(second)

    def test_skip_existing_disabled_recomputes(self, tmp_path):
        store = ResultStore(tmp_path, skip_existing=False)
        key = TaskKey("job", "random-0", "postgres")
        calls = []

        def thunk():
            calls.append(1)
            return _sample_result()

        store.load_or_run(key, thunk)
        store.load_or_run(key, thunk)
        assert len(calls) == 2

    def test_context_fingerprint_mismatch_treated_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = TaskKey("job", "random-0", "postgres")
        store.save(key, _sample_result(), context_fingerprint="old-config")
        assert not store.exists(key, "new-config")
        with pytest.raises(ExperimentError):
            store.load(key, "new-config")
        # Without a fingerprint requirement the file is still usable.
        assert store.exists(key)

    def test_corrupt_file_treated_as_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = TaskKey("job", "random-0", "postgres")
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert not store.exists(key, "ctx")
        with pytest.raises(ExperimentError):
            store.load(key)

    def test_pending_filters_completed_tasks(self, tmp_path):
        store = ResultStore(tmp_path)
        done = TaskKey("job", "random-0", "postgres")
        todo = TaskKey("job", "random-0", "bao")
        store.save(done, _sample_result(), "ctx")
        assert store.pending([done, todo], "ctx") == [todo]

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(TaskKey("job", "s", "m"), _sample_result())
        assert store.clear() == 1
        assert list(store.completed_files()) == []

    def test_stale_tmp_file_does_not_poison_resume(self, tmp_path):
        """Regression: a ``.tmp`` leftover of a crashed atomic write looked
        like a stored result to the fingerprint-less ``exists()``/``load()``
        path, so resume either skipped the task or died on 'corrupt stored
        result'.  The task must be re-run and the fresh save must win."""
        store = ResultStore(tmp_path)
        key = TaskKey("job", "random-0", "postgres")
        directory = store.path_for(key).parent
        directory.mkdir(parents=True)
        # Same shape _atomic_write's mkstemp produces: <stem>.<random>.tmp.
        stale = directory / "postgres-seed0.x7f3q9.tmp"
        stale.write_text('{"format_version": 1, "result": {truncated')
        assert not store.exists(key)
        with pytest.raises(ExperimentError):
            store.load(key)
        calls = []

        def thunk():
            calls.append(1)
            return _sample_result()

        result, resumed = store.load_or_run(key, thunk)
        assert calls == [1] and resumed is False
        assert run_result_as_json(store.load(key)) == run_result_as_json(result)

    def test_tmp_leftover_next_to_real_result_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        key = TaskKey("job", "random-0", "postgres")
        store.save(key, _sample_result(), context_fingerprint="ctx")
        (store.path_for(key, "ctx").parent / "postgres-seed0.zzzz.tmp").write_text("{broken")
        assert store.exists(key)
        assert store.load(key).to_dict() == _sample_result().to_dict()
        # seed1 must still not match seed10 after the pattern change.
        other = TaskKey("job", "random-0", "postgres", seed=1)
        store.save(TaskKey("job", "random-0", "postgres", seed=10), _sample_result())
        assert not store.exists(other)

    def test_clear_and_describe_exclude_artifacts(self, tmp_path):
        """Regression: ``clear()`` deleted saved artifacts and ``describe()``
        counted them as stored results."""
        store = ResultStore(tmp_path)
        store.save(TaskKey("job", "s", "m"), _sample_result())
        store.save_artifact("figure4 rows", [{"method": "postgres"}])
        assert "1 stored results" in store.describe()
        assert store.clear() == 1
        assert list(store.completed_files()) == []
        # The artifact survived the clear and is still loadable.
        assert store.load_artifact("figure4 rows") == [{"method": "postgres"}]

    def test_artifact_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        rows = [{"method": "postgres", "end_to_end_ms": 12.5}]
        store.save_artifact("figure4 rows", rows)
        assert store.load_artifact("figure4 rows") == rows
        with pytest.raises(ExperimentError):
            store.load_artifact("missing")

    def test_report_rows_from_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(TaskKey("job", "random-0", "postgres"), _sample_result())
        store.save_artifact("not-a-run", {"rows": []})
        rows = summary_rows_from_store(store)
        assert len(rows) == 1 and rows[0]["method"] == "postgres"
        assert "postgres" in store_report(store, title="stored")

    def test_keys_sanitized_for_filesystem(self, tmp_path):
        store = ResultStore(tmp_path)
        key = TaskKey("job/ext", "leave one out-0", "my method", seed=1)
        path = store.save(key, _sample_result())
        assert path.is_file()
        assert store.exists(key)


# ---------------------------------------------------------------------------
# Parallel runner
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_splits(job_workload):
    return [
        DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("1a", "2a", "3a"),
            test_ids=("1b", "2b"),
        ),
        DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=1,
            train_ids=("6a", "6b", "17a"),
            test_ids=("3a", "1a"),
        ),
    ]


GRID_METHODS = ("postgres", "bao")

GRID_CONFIG = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})


def make_runner(imdb_db, job_workload, workers: int, **kwargs) -> ParallelExperimentRunner:
    return ParallelExperimentRunner(
        imdb_db,
        job_workload,
        experiment_config=GRID_CONFIG,
        runtime_config=RuntimeConfig(workers=workers, **kwargs),
    )


class TestParallelRunner:
    def test_parallel_identical_to_serial_runner(self, imdb_db, job_workload, grid_splits):
        """The grid runner must be byte-identical to task-by-task execution."""
        grid = make_runner(imdb_db, job_workload, workers=1)
        grid_results = grid.run_grid(GRID_METHODS, grid_splits)

        serial_results = []
        for task in grid.tasks_for(GRID_METHODS, grid_splits):
            serial_runner = ExperimentRunner(
                imdb_db.with_config(imdb_db.config),
                job_workload,
                experiment_config=GRID_CONFIG.with_seed(task.task_seed),
            )
            serial_results.append(serial_runner.run_method(task.method, task.split))

        assert len(grid_results) == len(serial_results) == 4
        for got, expected in zip(grid_results, serial_results):
            assert run_result_as_json(got) == run_result_as_json(expected)

    def test_results_in_grid_order(self, imdb_db, job_workload, grid_splits):
        runner = make_runner(imdb_db, job_workload, workers=4)
        results = runner.run_grid(GRID_METHODS, grid_splits)
        expected_order = [
            (split.name, method) for split in grid_splits for method in GRID_METHODS
        ]
        assert [(r.split_name, r.method) for r in results] == expected_order

    def test_task_seed_independent_of_grid_composition(self, imdb_db, job_workload, grid_splits):
        runner = make_runner(imdb_db, job_workload, workers=2)
        full = {
            (t.method, t.split.name): t.task_seed
            for t in runner.tasks_for(GRID_METHODS, grid_splits)
        }
        reduced = {
            (t.method, t.split.name): t.task_seed
            for t in runner.tasks_for(("postgres",), grid_splits[:1])
        }
        for key, seed in reduced.items():
            assert full[key] == seed

    def test_repeats_get_distinct_seeds(self, imdb_db, job_workload, grid_splits):
        runner = make_runner(imdb_db, job_workload, workers=2)
        tasks = runner.tasks_for(("postgres",), grid_splits[:1], repeats=2)
        assert len(tasks) == 2
        assert tasks[0].task_seed != tasks[1].task_seed

    def test_invalid_grid_rejected(self, imdb_db, job_workload, grid_splits):
        runner = make_runner(imdb_db, job_workload, workers=2)
        with pytest.raises(ExperimentError):
            runner.tasks_for(GRID_METHODS, grid_splits, repeats=0)

    def test_resume_from_store(self, imdb_db, job_workload, grid_splits, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "grid-store")
        first = ParallelExperimentRunner(
            imdb_db,
            job_workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=4),
            result_store=store,
        )
        original = [run_result_as_json(r) for r in first.run_grid(GRID_METHODS, grid_splits)]
        assert store.stored_count == 4

        second = ParallelExperimentRunner(
            imdb_db,
            job_workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=4),
            result_store=store,
        )
        # Recompute goes through ExperimentRunner.run_method (the store's
        # load_or_run thunk); run_task is never on the store path, so patch
        # the method every recompute must traverse.
        monkeypatch.setattr(
            ExperimentRunner,
            "run_method",
            lambda *args, **kwargs: pytest.fail("resume should skip recomputation"),
        )
        resumed = [run_result_as_json(r) for r in second.run_grid(GRID_METHODS, grid_splits)]
        assert resumed == original

    def test_partial_resume_runs_only_missing_tasks(
        self, imdb_db, job_workload, grid_splits, tmp_path
    ):
        store = ResultStore(tmp_path / "partial-store")
        runner = ParallelExperimentRunner(
            imdb_db,
            job_workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=1),
            result_store=store,
        )
        tasks = runner.tasks_for(GRID_METHODS, grid_splits)
        # Pre-complete exactly one task, as if an earlier sweep was killed.
        done = tasks[0]
        store.save(
            runner.task_key(done), runner.run_task(done), runner.task_fingerprint(done)
        )
        pairs = [(runner.task_key(t), runner.task_fingerprint(t)) for t in tasks]
        assert sum(1 for k, fp in pairs if not store.exists(k, fp)) == len(tasks) - 1
        runner.run_grid(GRID_METHODS, grid_splits)
        assert all(store.exists(k, fp) for k, fp in pairs)

    def test_store_dir_via_runtime_config(self, imdb_db, job_workload, grid_splits, tmp_path):
        runner = ParallelExperimentRunner(
            imdb_db,
            job_workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=1, store_dir=str(tmp_path / "auto-store")),
        )
        assert runner.result_store is not None
        runner.run_grid(("postgres",), grid_splits[:1])
        assert runner.result_store.stored_count == 1


class TestOnePlanCachePerRunner:
    """Every task a runner — or a worker process — runs plans through one cache."""

    CONFIG = ExperimentConfig(
        optimizer_kwargs={"neo": {"training_iterations": 1}, "balsa": {"training_iterations": 1}},
    )

    @pytest.fixture(scope="class")
    def split(self, job_workload):
        return DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("1a", "1b", "2a", "2b", "3a", "6a", "6b", "17a", "32a"),
            test_ids=("1c", "2c"),
        )

    def test_a_cell_does_not_depend_on_what_the_cache_holds(self, imdb_db, job_workload, split, tmp_path):
        """[neo, balsa] on one runner, [balsa, neo] on one runner and each cell
        on a fresh runner store the same bytes."""
        stores = {}
        for label, runs in (
            ("neo, balsa", [("neo", "balsa")]),
            ("balsa, neo", [("balsa", "neo")]),
            ("fresh runners", [("neo",), ("balsa",)]),
        ):
            for methods in runs:
                runner = ParallelExperimentRunner(
                    imdb_db,
                    job_workload,
                    experiment_config=self.CONFIG,
                    runtime_config=RuntimeConfig(workers=1, store_dir=str(tmp_path / label)),
                )
                for method in methods:
                    runner.run_grid((method,), [split])
            store = ResultStore(tmp_path / label)
            stores[label] = {path.name: path.read_bytes() for path in store.completed_files()}
        assert len(stores["neo, balsa"]) == 2
        assert stores["neo, balsa"] == stores["balsa, neo"] == stores["fresh runners"]

    def test_balsa_after_neo_plans_from_the_cache(self, imdb_db, job_workload, split, monkeypatch):
        """Balsa's cost-model bootstrap plans every training query; neo planned them first."""
        runner = ParallelExperimentRunner(
            imdb_db, job_workload, experiment_config=self.CONFIG, runtime_config=RuntimeConfig(workers=1)
        )
        runner.run_grid(("neo",), [split])
        before = runner.plan_cache.stats_snapshot()
        planned = []
        plan_with_hints = LQOEnvironment.plan_with_hints

        def counted(env, query, *args, **kwargs):
            planned.append(query)
            return plan_with_hints(env, query, *args, **kwargs)

        monkeypatch.setattr(LQOEnvironment, "plan_with_hints", counted)
        runner.run_grid(("balsa",), [split])
        after = runner.plan_cache.stats_snapshot()
        assert len(planned) == len(split.train_ids)
        assert after.hits - before.hits == len(planned) and after.misses == before.misses

    def test_a_worker_process_keeps_one_cache(self, monkeypatch):
        monkeypatch.setattr(parallel, "_WORKER_PLAN_CACHE", PlanCache())
        spec, workload, split = _spec_grid_parts(0.2)
        runner = ParallelExperimentRunner(spec, workload, experiment_config=GRID_CONFIG)
        first, second = (runner.spec_payload(task) for task in runner.tasks_for(("postgres",), [split], repeats=2))
        _, first_runner = parallel._execute_payload(first)
        cache = first_runner.plan_cache
        assert cache.stats.misses == len(split.test_ids) and cache.stats.hits == 0
        _, second_runner = parallel._execute_payload(second)
        assert second_runner.plan_cache is cache and cache.stats.hits == len(split.test_ids)
        # A second spec plans through the same cache: its keys carry the
        # database scope, so it misses once per query, then hits.
        other = replace(first, spec=spec.with_seed(8))
        _, other_runner = parallel._execute_payload(other)
        assert other_runner.plan_cache is cache and cache.stats.misses == 2 * len(split.test_ids)
        parallel._execute_payload(replace(other, task=second.task))
        assert cache.stats.hits == 2 * len(split.test_ids)


def _spec_grid_parts(scale: float):
    """A spec-built database, rebound workload and tiny split at ``scale``."""
    spec = DatabaseSpec.create("imdb", scale=scale, seed=7, config=SIMULATION_CONFIG)
    database = get_process_registry().get(spec)
    workload = build_workload("job", database.schema)
    split = DatasetSplit(
        workload_name=workload.name,
        sampling=SplitSampling.RANDOM,
        split_index=0,
        train_ids=("1a", "2a", "3a"),
        test_ids=("1b", "2b"),
    )
    return spec, workload, split


class TestSpecDispatchEquivalence:
    """A spec payload run through the worker entry point equals the serial cell at any scale."""

    @pytest.mark.parametrize("scale", [0.2, 0.4])
    def test_spec_payload_identical_to_serial(self, scale):
        spec, workload, split = _spec_grid_parts(scale)
        serial = ParallelExperimentRunner(
            spec,
            workload,
            experiment_config=GRID_CONFIG,
            runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
        )
        assert serial.uses_spec_dispatch
        tasks = serial.tasks_for(GRID_METHODS, [split])
        a = [
            run_result_as_json(parallel.execute_spec_payload_with_identity(serial.spec_payload(t))[0])
            for t in tasks
        ]
        b = [run_result_as_json(r) for r in serial.run_grid(GRID_METHODS, [split])]
        assert a == b

    def test_same_store_different_scale_not_resumed(self, tmp_path):
        """The database name is scale-blind ('imdb' at 0.2 and 0.4); the spec
        fingerprint in the context keeps small-scale results from being served
        as large-scale ones out of a shared persistent store."""
        store = ResultStore(tmp_path / "scale-store")
        for scale in (0.2, 0.4):
            spec, workload, split = _spec_grid_parts(scale)
            runner = ParallelExperimentRunner(
                spec, workload, experiment_config=GRID_CONFIG, result_store=store
            )
            runner.run_grid(("postgres",), [split])
        assert store.loaded_count == 0 and store.stored_count == 2


def _serial_runner(database, workload, store: ResultStore, config=None) -> ParallelExperimentRunner:
    return ParallelExperimentRunner(
        database,
        workload,
        config=config,
        experiment_config=GRID_CONFIG,
        runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
        result_store=store,
    )


class TestSerialRunnerResume:
    def test_run_method_resumes_from_store(self, imdb_db, job_workload, grid_splits, tmp_path):
        store = ResultStore(tmp_path / "serial-store")
        runner = _serial_runner(imdb_db, job_workload, store)
        (first,) = runner.run_grid(("postgres",), grid_splits[:1])
        assert store.stored_count == 1 and store.loaded_count == 0
        (second,) = runner.run_grid(("postgres",), grid_splits[:1])
        assert store.loaded_count == 1
        assert run_result_as_json(first) == run_result_as_json(second)

    def test_same_split_name_different_membership_not_resumed(
        self, imdb_db, job_workload, grid_splits, tmp_path
    ):
        """'random-0' regenerated under another seed holds different queries —
        stored results for the old membership must not be reused."""
        store = ResultStore(tmp_path / "membership-store")
        runner = _serial_runner(imdb_db, job_workload, store)
        runner.run_grid(("postgres",), grid_splits[:1])
        other = DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("6a", "6b"),
            test_ids=("2a",),
        )
        assert other.name == grid_splits[0].name
        runner.run_grid(("postgres",), [other])
        assert store.loaded_count == 0 and store.stored_count == 2

    def test_changed_config_is_not_resumed(self, imdb_db, job_workload, grid_splits, tmp_path):
        store = ResultStore(tmp_path / "serial-store")
        _serial_runner(imdb_db, job_workload, store).run_grid(("postgres",), grid_splits[:1])
        changed = _serial_runner(
            imdb_db,
            job_workload,
            store,
            config=imdb_db.config.with_overrides(work_mem=imdb_db.config.work_mem * 2),
        )
        changed.run_grid(("postgres",), grid_splits[:1])
        # The second run could not reuse the first run's file: different knobs.
        assert store.loaded_count == 0 and store.stored_count == 2


class TestRuntimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)
        with pytest.raises(ValueError):
            RuntimeConfig(executor_kind="fibers")
        for removed in ("plan_cache_entries", "skip_existing", "lease_timeout_s"):
            with pytest.raises(TypeError):
                RuntimeConfig(**{removed: 0})

    def test_executor_kinds_run_in_process_or_through_the_work_queue(self):
        assert EXECUTOR_KINDS == ("serial", "distributed")
        for removed in ("process", "thread"):
            with pytest.raises(ValueError, match=f"unknown executor kind '{removed}'"):
                RuntimeConfig(executor_kind=removed)

    def test_overrides(self):
        config = RuntimeConfig().with_overrides(workers=8, executor_kind="serial")
        assert config.workers == 8 and config.executor_kind == "serial"


class TestThreadStartingSites:
    """The queue server's accept loop is the one thread ``src/`` starts by
    name (its handler threads are ``socketserver``'s): neither a sweep
    worker nor its coordinator starts one."""

    @staticmethod
    def thread_starts(root: Path) -> list[tuple[str, str | None]]:
        """Every ``Thread(...)`` or ``Timer(...)`` call under ``root``, as
        (module path, innermost enclosing class or ``None``)."""
        found = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owners: dict[int, str] = {}
            for cls in ast.walk(tree):  # outer classes first: an inner one overwrites
                if isinstance(cls, ast.ClassDef):
                    owners.update((id(node), cls.name) for node in ast.walk(cls))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in ("Thread", "Timer"):
                        found.append((path.relative_to(root).as_posix(), owners.get(id(node))))
        return found

    def test_the_frame_servers_accept_loop_is_the_only_thread_started(self):
        root = Path(parallel.__file__).resolve().parents[1]
        assert self.thread_starts(root) == [("runtime/netqueue.py", "FrameServer")]

    def test_no_lease_heartbeat_or_standalone_worker_is_left(self):
        """A dead worker is found by reaping it, so ``src/`` names no lease,
        heartbeat or renewal and no ``repro.runtime.worker`` entry point
        (word-bounded: the IMDB info type "release dates" is data)."""
        pattern = re.compile(r"\blease|heartbeat|\brenew|repro\.runtime\.worker\b", re.IGNORECASE)
        root = Path(parallel.__file__).resolve().parents[1]
        hits = [
            f"{path.relative_to(root).as_posix()}:{number}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == []
        assert not (root / "runtime" / "worker.py").exists()


class TestDeterministicTiming:
    def test_two_runs_identical_including_training_times(self, imdb_db, job_workload, grid_splits):
        def one_run() -> MethodRunResult:
            runner = ExperimentRunner(
                imdb_db.with_config(imdb_db.config),
                job_workload,
                experiment_config=GRID_CONFIG.with_seed(11),
            )
            return runner.run_method("bao", grid_splits[0])

        assert run_result_as_json(one_run()) == run_result_as_json(one_run())


class TestOneClock:
    """Inference and training times are simulated: no host clock reaches a result,
    so a driver returns the same bytes on every run."""

    CONFIG = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})

    @pytest.fixture(scope="class")
    def context(self):
        context = job_context(0.1)
        subset = context.workload.subset(context.workload.query_ids()[:15])
        return BenchmarkContext(database=context.database, workload=subset, spec=context.spec)

    def figure4_bytes(self, context, runtime_config=None) -> list[str]:
        result = figure4.run_for_context(
            context,
            methods=("postgres", "bao"),
            samplings=(SplitSampling.RANDOM,),
            experiment_config=self.CONFIG,
            runtime_config=runtime_config,
        )
        return [run_result_as_json(run) for run in result.runs]

    def test_figure4_default_path_ignores_the_host_clock(self, context, monkeypatch):
        first = self.figure4_bytes(context)
        ticks = itertools.count(0.0, 1.0)
        with monkeypatch.context() as patched:
            patched.setattr(time, "perf_counter", lambda: next(ticks))
            jumped = self.figure4_bytes(context)
        assert len(first) == 2
        assert first == jumped

    def test_optimizer_times_are_the_simulated_ones(self, context, monkeypatch):
        """With the host clock jumping 1 s per read, training and inference
        times still equal the clock's simulated formulas exactly."""
        runner = ExperimentRunner(context.database, context.workload, experiment_config=self.CONFIG)
        env = runner.build_environment()
        optimizer = create_optimizer("bao", env, training_passes=1)
        queries = [context.workload.by_id(query_id) for query_id in context.workload.query_ids()[:6]]
        ticks = itertools.count(0.0, 1.0)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        report = optimizer.fit(queries[:5])
        planned = optimizer.plan_query(queries[5])
        assert report.executed_plans > 0
        assert report.training_time_s == simclock.training_s(report.executed_plans, 5, report.iterations)
        assert planned.inference_time_ms == simclock.inference_ms(queries[5].bound, "bao")

    def covariate_shift_study(self, context):
        split = generate_split(context.workload, SplitSampling.RANDOM, seed=0)
        return run_covariate_shift_study(
            context.database, imdb_half_database(0.1), context.workload, split, experiment_config=self.CONFIG
        )

    @pytest.fixture(scope="class")
    def study(self, context):
        return self.covariate_shift_study(context)

    def test_covariate_shift_study_is_repeatable(self, context, study):
        def as_json(result) -> str:
            return json.dumps(
                [result.full_model.to_dict(), result.shifted_model.to_dict(), result.slowdown_factors],
                sort_keys=True,
            )

        assert as_json(study) == as_json(self.covariate_shift_study(context))

    def test_covariate_shift_trains_both_models_alike(self, study):
        """Bao-Full and Bao-50 take the same ``optimizer_kwargs["bao"]``, so one
        training pass each executes the same number of plans."""
        assert study.full_model.executed_training_plans == study.shifted_model.executed_training_plans > 0

    def test_covariate_shift_ranks_slowdowns_against_bao_full(self, study):
        """Each test query's factor is Bao-50's execution time over Bao-Full's;
        regressions list the largest factors first, improvements only those
        below 1, smallest first."""
        full = {t.query_id: t.execution_time_ms for t in study.full_model.timings}
        shifted = {t.query_id: t.execution_time_ms for t in study.shifted_model.timings}
        assert set(study.slowdown_factors) == set(full) == set(shifted)
        for query_id, factor in study.slowdown_factors.items():
            assert factor == shifted[query_id] / max(full[query_id], 1e-6)
        by_factor = sorted(study.slowdown_factors.items(), key=lambda item: item[1])
        assert study.top_regressions(3) == by_factor[::-1][:3]
        assert study.top_improvements(3) == [item for item in by_factor[:3] if item[1] < 1.0]


class TestImportHygiene:
    """A worker, a coordinator and a plan server reach their first operation
    without importing what only a report needs: ``scipy.stats`` (0.6 s) loads
    inside the functions that use it.  ``networkx`` is not a dependency: the
    join graph is an alias adjacency built from the query's predicates."""

    def test_runtime_entry_points_import_neither_scipy_stats_nor_networkx(self):
        script = (
            "import sys\n"
            "import repro.runtime.parallel, repro.runtime.planserver\n"
            "print(sorted(m for m in sys.modules if m == 'networkx' or m.startswith('scipy')))\n"
            "from repro.core.stats import mann_whitney_u_test\n"
            "assert mann_whitney_u_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]).p_value < 1.0\n"
            "from repro.config import SIMULATION_CONFIG\n"
            "from repro.catalog.imdb import generate_imdb\n"
            "from repro.optimizer.planner import Planner\n"
            "from repro.workloads import build_job_workload\n"
            "database = generate_imdb(scale=0.02, seed=1, config=SIMULATION_CONFIG)\n"
            "query = next(q.bound for q in build_job_workload(database.schema) if q.num_relations == 17)\n"
            "assert query.is_connected()\n"
            "assert Planner(database).plan_with_info(query).used_geqo\n"
            "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        before, after = done.stdout.splitlines()
        assert before == "[]"
        assert after == "['scipy.stats']"

    def test_the_planner_loads_no_queue_transport_and_each_runtime_module_imports_alone(self):
        """``repro.runtime`` re-exports nothing, so planning (planner ->
        plan_cache -> the package) loads neither the TCP queue nor progress,
        and no runtime module needs another imported first."""
        script = (
            "import importlib, pkgutil, sys\n"
            "import repro.optimizer.planner\n"
            "loaded = ('repro.runtime.netqueue', 'repro.runtime.progress', 'socketserver', 'hmac')\n"
            "print(sorted(m for m in loaded if m in sys.modules))\n"
            "import repro.runtime\n"
            "names = [m.name for m in pkgutil.iter_modules(repro.runtime.__path__)]\n"
            "for name in names:\n"
            "    for module in [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]:\n"
            "        del sys.modules[module]\n"
            "    importlib.import_module('repro.runtime.' + name)\n"
            "print(len(names))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        loaded, count = done.stdout.splitlines()
        assert loaded == "[]"
        assert int(count) >= 9

    def test_every_import_in_the_docs_resolves(self):
        """The README's and docs' snippets import each name from the module
        that defines it, and that module still has it."""
        root = Path(__file__).resolve().parents[1]
        pattern = re.compile(r"^from (repro[\w.]*) import (.+)$", re.MULTILINE)
        imports = [
            (doc.name, module, name.strip())
            for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]
            for module, names in pattern.findall(doc.read_text(encoding="utf-8"))
            for name in names.split(",")
        ]
        assert len(imports) >= 7
        missing = [
            entry for entry in imports
            if not hasattr(importlib.import_module(entry[1]), entry[2])
        ]
        assert missing == []
