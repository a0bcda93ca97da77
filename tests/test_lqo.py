"""Tests for the learned query optimizers and the registry."""

import pytest

from repro.errors import PlanError
from repro.lqo import available_methods, create_optimizer, method_info
from repro.lqo.base import LQOEnvironment
from repro.plans.hints import BAO_HINT_SETS
from repro.plans.properties import is_left_deep


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
        assert set(available_methods()) == {
            "postgres", "neo", "bao", "balsa", "leon", "hybridqo", "rtos", "lero", "loger",
        }

    def test_main_evaluation_methods(self):
        main = available_methods(main_evaluation_only=True)
        assert main[0] == "postgres"
        assert set(main) == {"postgres", "bao", "hybridqo", "neo", "balsa", "leon"}
        for name in ("rtos", "lero", "loger"):
            assert not method_info(name).in_main_evaluation

    def test_method_info_unknown(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            method_info("oracle")

    def test_encoding_attached_to_learned_methods(self):
        assert method_info("postgres").encoding is None
        assert method_info("neo").encoding is not None


class TestEnvironment:
    def test_hints_from_plan_roundtrip(self, shared_env, job_workload):
        query = job_workload.by_id("2a")
        plan = shared_env.plan_with_hints(query.bound).plan
        hints = shared_env.hints_from_plan(query.bound, plan)
        hints.validate(query.bound.aliases)
        assert set(hints.leading) == set(query.bound.aliases)
        forced = shared_env.plan_with_hints(query.bound, hints)
        assert forced.plan.aliases == plan.aliases

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
            assert planned.hints.forces_join_order

    def test_balsa_bootstrap_uses_cost_not_execution(self, shared_env, small_split):
        train, _ = small_split
        balsa = create_optimizer("balsa", shared_env, training_iterations=0)
        report = balsa.fit(train)
        # Cost-model bootstrap does not execute any plan.
        assert report.executed_plans == 0

    def test_rtos_is_left_deep(self, shared_env, small_split, job_workload):
        """Every JOB query, untrained (ranked by cost) and trained: the plan
        covers the query and is left-deep.  (Scan-scan pairs used to stay
        candidates beside a join, leaving two join subplans that no left-deep
        step can merge: ``search_plan`` returned the first, a partial plan.)"""
        train, test = small_split
        untrained = create_optimizer("rtos", shared_env, training_iterations=0)
        trained = create_optimizer("rtos", shared_env, training_iterations=0)
        trained.fit(train)
        assert trained._model.is_trained and not untrained._model.is_trained
        assert len(job_workload.queries) == 113
        for rtos in (untrained, trained):
            for query in job_workload.queries:
                plan = rtos.search_plan(query.bound)
                assert plan.aliases == frozenset(query.bound.aliases), query.query_id
                assert is_left_deep(plan), query.query_id
        planned = trained.plan_query(test[0])
        assert is_left_deep(planned.plan) and planned.hints.forces_join_order

    def test_a_search_that_ends_in_a_partial_plan_raises(self, shared_env, job_workload, monkeypatch):
        neo = create_optimizer("neo", shared_env)
        query = job_workload.by_id("2a").bound
        monkeypatch.setattr(
            neo.env.planner.cost_model, "build_join",
            lambda query, join: join.left,  # "joins" by dropping a relation
        )
        with pytest.raises(PlanError, match="missing="):
            neo.search_plan(query)


class TestLeonHybridLero:
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

    def test_lero_uses_pairwise_comparator(self, shared_env, small_split):
        train, test = small_split
        lero = create_optimizer("lero", shared_env)
        lero.fit(train)
        planned = lero.plan_query(test[0])
        assert planned.plan.aliases == frozenset(test[0].bound.aliases)

    def test_loger_restricted_to_join_toggle_arms(self, shared_env):
        loger = create_optimizer("loger", shared_env)
        arm_names = {arm.name for arm in loger.arms}
        assert arm_names == {"all_on", "no_nestloop", "no_mergejoin", "no_hashjoin"}
