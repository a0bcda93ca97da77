"""Tests for the learned query optimizers and the registry."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.lqo import available_methods, create_optimizer, method_info
from repro.lqo.base import LQOEnvironment
from repro.lqo.registry import MAIN_EVALUATION_METHODS
from repro.plans.hints import BAO_HINT_SETS
from repro.plans.properties import is_bushy
from repro.workloads import build_ext_job_workload


@pytest.fixture(scope="module")
def small_split(job_workload):
    """A tiny but family-structured train/test split for fast optimizer tests."""
    train_ids = ["1a", "1b", "2a", "2b", "3a", "6a", "6b", "17a", "32a"]
    test_ids = ["1c", "2c", "6c"]
    return (
        [job_workload.by_id(q) for q in train_ids],
        [job_workload.by_id(q) for q in test_ids],
    )


@pytest.fixture(scope="module")
def shared_env(imdb_db):
    return LQOEnvironment(imdb_db, seed=0)


class TestRegistry:
    def test_all_methods_registered(self):
        """The six methods of Figure 4, in its order."""
        assert available_methods() == ["postgres", "bao", "hybridqo", "neo", "balsa", "leon"]

    def test_main_evaluation_methods(self):
        assert tuple(available_methods()) == MAIN_EVALUATION_METHODS

    @pytest.mark.parametrize("method", available_methods())
    def test_a_method_is_registered_under_its_class_name(self, method):
        assert method_info(method).cls.name == method

    def test_method_info_unknown(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            method_info("oracle")

    @pytest.mark.parametrize("method", ["rtos", "lero", "loger"])
    def test_methods_the_paper_excludes_are_not_runnable(self, shared_env, method):
        """RTOS, Lero and LOGER appear only in Tables 1 and 2 (Section 8.2)."""
        from repro.errors import ExperimentError

        assert method not in available_methods()
        with pytest.raises(ExperimentError):
            create_optimizer(method, shared_env)


class TestEnvironment:
    def test_execute_plan_hot_cache_protocol(self, shared_env, job_workload):
        query = job_workload.by_id("1a")
        plan = shared_env.plan_with_hints(query.bound).plan
        measured = shared_env.execute_plan(query.bound, plan, runs=3, cold_start=True)
        assert len(measured.execution_times_ms) == 3
        assert measured.reported_execution_ms <= measured.first_execution_ms * 1.1

    def test_query_plan_vector_size(self, shared_env, job_workload):
        query = job_workload.by_id("1a")
        plan = shared_env.plan_with_hints(query.bound).plan
        vector = shared_env.query_plan_vector(query.bound, plan)
        assert vector.shape == (shared_env.query_plan_vector_size,)

    def test_plan_vector_is_the_tree_convolution(self, shared_env, job_workload):
        query = job_workload.by_id("17a")
        plan = shared_env.plan_with_hints(query.bound).plan
        plan_vector = shared_env.plan_vector(plan)
        assert plan_vector.shape == (shared_env.plan_vector_size,)
        assert (plan_vector == shared_env.tree_conv.encode_plan(plan)).all()
        query_vector = shared_env.query_vector(query.bound)
        assert (shared_env.query_plan_vector(query.bound, plan) == np.concatenate([query_vector, plan_vector])).all()


class TestPostgresBaseline:
    def test_no_training_and_zero_inference(self, shared_env, small_split, job_workload):
        optimizer = create_optimizer("postgres", shared_env)
        report = optimizer.fit(small_split[0])
        assert report.training_time_s == 0.0
        planned = optimizer.plan_query(job_workload.by_id("1c"))
        assert planned.inference_time_ms == 0.0
        assert planned.planning_time_ms > 0.0
        assert planned.plan.aliases == frozenset(job_workload.by_id("1c").bound.aliases)


class TestBao:
    def test_fit_and_plan(self, shared_env, small_split):
        train, test = small_split
        bao = create_optimizer("bao", shared_env, training_passes=1, retrain_every=5)
        report = bao.fit(train)
        assert report.executed_plans >= len(train) * len(BAO_HINT_SETS)
        planned = bao.plan_query(test[0])
        assert planned.metadata["chosen_arm"] in {h.name for h in BAO_HINT_SETS}
        assert planned.plan.aliases == frozenset(test[0].bound.aliases)
        assert planned.inference_time_ms > 0.0

    def test_plans_every_hint_set_in_order(self, shared_env, job_workload):
        bao = create_optimizer("bao", shared_env)
        arm_plans = bao._arm_plans(job_workload.by_id("2a"))
        assert [arm for arm, _, _ in arm_plans] == list(BAO_HINT_SETS)
        for _, result, vector in arm_plans:
            assert vector.shape == (shared_env.plan_vector_size,)
            assert (vector == shared_env.plan_vector(result.plan)).all()

    def test_integrates_with_dbms_flag(self, shared_env):
        assert create_optimizer("bao", shared_env).integrates_with_dbms is True
        assert create_optimizer("neo", shared_env).integrates_with_dbms is False


class TestNeoAndBalsa:
    def test_neo_produces_valid_plans(self, shared_env, small_split):
        train, test = small_split
        neo = create_optimizer("neo", shared_env, training_iterations=1)
        report = neo.fit(train)
        assert report.executed_plans >= len(train)  # bootstrap + iteration
        for query in test:
            planned = neo.plan_query(query)
            assert planned.plan.aliases == frozenset(query.bound.aliases)

    def test_balsa_bootstrap_uses_cost_not_execution(self, shared_env, small_split):
        train, _ = small_split
        balsa = create_optimizer("balsa", shared_env, training_iterations=0)
        report = balsa.fit(train)
        # Cost-model bootstrap does not execute any plan.
        assert report.executed_plans == 0

    def test_neo_search_is_not_restricted_to_left_deep(self, shared_env, job_workload):
        """Untrained (ranked by cost), every JOB plan covers its query, and the
        search joins two join subplans where that is cheaper: bushy plans."""
        neo = create_optimizer("neo", shared_env)
        assert len(job_workload.queries) == 113
        plans = {query.query_id: neo.search_plan(query.bound) for query in job_workload.queries}
        for query in job_workload.queries:
            assert plans[query.query_id].aliases == frozenset(query.bound.aliases), query.query_id
        assert any(is_bushy(plan) for plan in plans.values())

    def test_a_search_that_ends_in_a_partial_plan_raises(self, shared_env, job_workload, monkeypatch):
        neo = create_optimizer("neo", shared_env)
        query = job_workload.by_id("2a").bound
        monkeypatch.setattr(
            neo.env.planner.cost_model, "build_join",
            lambda query, join: join.left,  # "joins" by dropping a relation
        )
        with pytest.raises(PlanError, match="missing="):
            neo.search_plan(query)


class TestLeonHybridQO:
    def test_leon_plans_and_is_slowest_at_inference(self, shared_env, small_split):
        train, test = small_split
        leon = create_optimizer("leon", shared_env)
        leon.fit(train)
        postgres = create_optimizer("postgres", shared_env)
        postgres.fit([])
        leon_planned = leon.plan_query(test[0])
        assert leon_planned.plan.aliases == frozenset(test[0].bound.aliases)
        assert leon_planned.inference_time_ms > 0.5

    def test_hybridqo_selects_among_candidates(self, shared_env, small_split):
        train, test = small_split
        hybrid = create_optimizer("hybridqo", shared_env, mcts_iterations=10)
        hybrid.fit(train)
        planned = hybrid.plan_query(test[1])
        assert planned.metadata["n_candidates"] >= 1
        assert planned.plan.aliases == frozenset(test[1].bound.aliases)


class TestPlansRunAsTheNativePlan:
    """Every method, fitted on a small JOB split, plans one query of each
    ext-JOB family (GROUP BY, ORDER BY) to a plan that returns the native
    plan's rows."""

    @pytest.mark.parametrize("method", MAIN_EVALUATION_METHODS)
    def test_every_method_returns_the_native_rows(self, imdb_db, small_split, method):
        env = LQOEnvironment(imdb_db, seed=0)
        optimizer = create_optimizer(method, env)
        optimizer.fit(small_split[0][:4])
        for query in build_ext_job_workload(imdb_db.schema).queries[::4]:
            native = env.engine.execute(query.bound, env.plan_with_hints(query.bound).plan)
            planned = env.engine.execute(query.bound, optimizer.plan_query(query).plan)
            assert native.error is None and planned.error is None, (method, query.query_id)
            assert native.row_count > 0
            assert sorted(planned.rows, key=repr) == sorted(native.rows, key=repr), (method, query.query_id)

