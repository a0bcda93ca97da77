"""LQO searches over records: candidate joins are costed and encoded as numbers
and built only when a search keeps them.

* neo, balsa and rtos build one join node per step — ``n - 1`` per search —
  and LEON exactly the candidates it keeps;
* a candidate encodes to the bytes of the node it would build;
* every replay-buffer row of a fit is ``query_plan_vector`` of its plan, bit
  for bit, though a searched plan's row is read off the search's final state,
  and a fit encodes each training query once.
"""

from __future__ import annotations

import pickle

import pytest

from repro.lqo import create_optimizer
from repro.lqo.base import LQOEnvironment
from repro.lqo.leon import _RankedSearch
from repro.optimizer.cost_model import CostModel
from repro.plans.physical import JoinNode, plan_join_nodes

TRAIN_IDS = ("1a", "1b", "2a", "2b", "3a", "6a", "6b", "17a", "32a")
#: 4 to 17 relations: LEON takes its DP and its beam.
QUERY_IDS = ("1c", "2c", "6c", "17b", "29a")


@pytest.fixture()
def built_joins(monkeypatch) -> list[JoinNode]:
    """Every node ``CostModel.join_node`` builds while the test runs."""
    built: list[JoinNode] = []
    join_node = CostModel.join_node

    def counted(self, *args, **kwargs):
        node = join_node(self, *args, **kwargs)
        built.append(node)
        return node

    monkeypatch.setattr(CostModel, "join_node", counted)
    return built


def fitted(imdb_db, job_workload, method: str, **kwargs):
    optimizer = create_optimizer(method, LQOEnvironment(imdb_db, seed=0), **kwargs)
    optimizer.fit([job_workload.by_id(query_id) for query_id in TRAIN_IDS])
    return optimizer


class TestNodesBuilt:
    @pytest.mark.parametrize("method", ["neo", "balsa", "rtos"])
    def test_a_greedy_search_builds_its_plan_and_nothing_else(self, imdb_db, job_workload, method, built_joins):
        untrained = create_optimizer(method, LQOEnvironment(imdb_db, seed=0))
        trained = fitted(imdb_db, job_workload, method, training_iterations=1)
        assert trained._model.is_trained and not untrained._model.is_trained
        for optimizer in (untrained, trained):
            for query_id in QUERY_IDS:
                query = job_workload.by_id(query_id).bound
                built_joins.clear()
                plan = optimizer.search_plan(query)
                assert len(built_joins) == query.num_relations - 1, (method, query_id)
                assert {id(node) for node in built_joins} == {id(node) for node in plan_join_nodes(plan)}

    def test_leon_builds_exactly_the_candidates_it_keeps(self, imdb_db, job_workload, built_joins, monkeypatch):
        kept: list[JoinNode] = []
        costed: list[object] = []
        top, candidate_join = _RankedSearch.top, CostModel.candidate_join

        def spying_top(self, candidates, keep):
            result = top(self, candidates, keep)
            kept.extend(plan for plan, _ in result if isinstance(plan, JoinNode))
            return result

        def spying_candidate_join(self, *args, **kwargs):
            candidate = candidate_join(self, *args, **kwargs)
            costed.append(candidate)
            return candidate

        untrained = create_optimizer("leon", LQOEnvironment(imdb_db, seed=0))
        trained = fitted(imdb_db, job_workload, "leon")
        monkeypatch.setattr(_RankedSearch, "top", spying_top)
        monkeypatch.setattr(CostModel, "candidate_join", spying_candidate_join)
        strategies = set()
        for optimizer in (untrained, trained):
            for query_id in QUERY_IDS:
                query = job_workload.by_id(query_id).bound
                strategies.add(optimizer._strategy(query))
                for seen in (built_joins, kept, costed):
                    seen.clear()
                optimizer.search_plan(query)
                assert [id(node) for node in built_joins] == [id(node) for node in kept], query_id
                assert len(kept) < len(costed), query_id
        assert strategies == {"ranked-dp", "ranked-beam"}


class TestCandidateEncoding:
    @pytest.mark.parametrize("use_lstm", [False, True])
    def test_a_candidate_encodes_to_the_bytes_of_its_node(self, env, job_workload, use_lstm):
        query = job_workload.by_id("17a").bound
        cost_model = env.planner.cost_model
        context = cost_model.planning_context()
        encoder = env.tree_encoder(use_lstm)
        for join in plan_join_nodes(env.plan_with_hints(query).plan):
            left, right = join.left, join.right
            candidate = cost_model.candidate_join(
                query, left, right, cost_model.join_input(query, left, context),
                cost_model.join_input(query, right, context), join.predicates, context,
            )
            node = cost_model.build_join(query, candidate)
            best = cost_model.best_join(query, left, right, predicates=join.predicates)
            assert pickle.dumps(node) == pickle.dumps(best)
            assert env.plan_encoder.node_vector(candidate).tobytes() == env.plan_encoder.node_vector(node).tobytes()
            assert encoder.encode_plan(candidate).tobytes() == env.plan_vector(node, use_lstm).tobytes()


class TestReplayRows:
    @pytest.mark.parametrize("method", ["neo", "balsa", "rtos"])
    @pytest.mark.parametrize("train_size", [len(TRAIN_IDS), 5])
    def test_every_row_is_query_plan_vector_of_its_plan(self, imdb_db, job_workload, method, train_size, monkeypatch):
        """Nine training queries train the value model before the first
        search (rows from the final search state); five do not (rows from
        the plan, encoded whole)."""
        env = LQOEnvironment(imdb_db, seed=0)
        optimizer = create_optimizer(method, env, training_iterations=2)
        expert, executed, encoded = [], [], []
        plan_with_hints, training_latency, query_vector = (
            env.plan_with_hints, env.training_latency, env.query_vector
        )

        def spying_plan_with_hints(query, *args, **kwargs):
            result = plan_with_hints(query, *args, **kwargs)
            expert.append((query, result.plan))
            return result

        def spying_training_latency(query, plan, *args, **kwargs):
            executed.append((query, plan))
            return training_latency(query, plan, *args, **kwargs)

        def spying_query_vector(query):
            encoded.append(query)
            return query_vector(query)

        monkeypatch.setattr(env, "plan_with_hints", spying_plan_with_hints)
        monkeypatch.setattr(env, "training_latency", spying_training_latency)
        monkeypatch.setattr(env, "query_vector", spying_query_vector)
        train = [job_workload.by_id(query_id) for query_id in TRAIN_IDS[:train_size]]
        optimizer.fit(train)
        monkeypatch.undo()
        # One query encoding per training query for the whole fit.
        assert [id(query) for query in encoded] == [id(query.bound) for query in train]
        experiences = list(optimizer._buffer)
        bootstrap = [experience for experience in experiences if experience.iteration == 0]
        searched = [experience for experience in experiences if experience.iteration > 0]
        assert len(bootstrap) == train_size and len(searched) == 2 * train_size
        pairs = list(zip(bootstrap, expert)) + list(zip(searched, executed[-len(searched):]))
        for experience, (query, plan) in pairs:
            expected = env.query_plan_vector(query, plan, use_lstm=optimizer.use_lstm_encoder)
            assert experience.features.dtype == expected.dtype
            assert experience.features.tobytes() == expected.tobytes()
