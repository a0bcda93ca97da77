"""The LQO search loop: one planning context per search, one encoding per plan node.

Four contracts, each pinned byte for byte:

* an encoder state composed node by node reads out to the bytes of the
  whole-tree encoding (and those are the bytes recorded at the parent commit),
* a search that keeps a state beside each subplan scores the candidate matrix
  ``plan_vector`` per candidate would build and returns the recorded plans,
* a join a search costs from its children's records and then builds is the
  node ``CostModel.best_join`` builds from those children,
* a planning context shared across hint sets — HybridQO's prefix hints,
  Bao's arms, toggles and forced scans alike — yields the plans a fresh
  context per call yields.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.lqo import create_optimizer
from repro.lqo.base import LQOEnvironment
from repro.lqo.leon import LeonOptimizer
from repro.lqo.neo import NeoOptimizer
from repro.lqo.search import JoinSearch
from repro.optimizer.planner import Planner
from repro.plans.hints import BAO_HINT_SETS, NO_HINTS, HintSet, OperatorToggles
from repro.plans.physical import JoinNode, PlanNode, ScanType, plan_join_nodes, strip_decorations
from repro.runtime.plan_cache import PlanCache
from repro.workloads import build_workload

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import record_lqo_digests, record_plan_digests  # noqa: E402


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(record_lqo_digests.GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_plans(imdb_db, stack_db) -> dict[str, list[PlanNode]]:
    """Every plan of the golden-digest query set under every hint/config variant."""
    databases = {"imdb": imdb_db, "stack": stack_db}
    return {
        name: list(record_lqo_digests.variant_plans(databases[key], build_workload(name, databases[key].schema)))
        for name, key in record_plan_digests.WORKLOADS
    }


def composed(encoder, plan: PlanNode):
    """The state of ``plan``'s root, composed one node at a time."""
    node = strip_decorations(plan)
    if isinstance(node, JoinNode):
        return encoder.node_state(node, composed(encoder, node.left), composed(encoder, node.right))
    return encoder.node_state(node)


class TestIncrementalEncoding:
    def test_node_by_node_equals_whole_tree_on_every_golden_plan(self, imdb_db, stack_db, golden_plans):
        assert sum(len(plans) for plans in golden_plans.values()) == (113 + 24 + 112) * 11
        envs = {"imdb": LQOEnvironment(imdb_db, seed=0), "stack": LQOEnvironment(stack_db, seed=0)}
        for name, key in record_plan_digests.WORKLOADS:
            encoder = envs[key].tree_conv
            for plan in golden_plans[name]:
                whole = envs[key].plan_vector(plan)
                assert whole.dtype == np.float64 and whole.shape == (encoder.output_size,)
                assert encoder.readout(composed(encoder, plan)).tobytes() == whole.tobytes()

    def test_encodings_are_the_bytes_recorded_at_the_parent(self, imdb_db, golden_plans, recorded):
        assert len(golden_plans["job"]) == recorded["encoded_plans"]
        digests = record_lqo_digests.encoding_digests(LQOEnvironment(imdb_db, seed=0), golden_plans["job"])
        assert digests == recorded["encodings"]

    def test_a_join_composed_from_separately_computed_child_states(self, env, job_workload):
        query = job_workload.by_id("17a").bound
        encoder = env.tree_conv
        cost_model = env.planner.cost_model
        join = next(
            node for node in plan_join_nodes(env.plan_with_hints(query).plan)
            if isinstance(node.left, JoinNode) or isinstance(node.right, JoinNode)
        )
        left, right = composed(encoder, join.left), composed(encoder, join.right)
        # The same child states serve two parents and still read out to their own plans.
        mirrored = cost_model.best_join(query, join.right, join.left)
        for parent, state in (
            (join, encoder.node_state(join, left, right)),
            (mirrored, encoder.node_state(mirrored, right, left)),
        ):
            assert encoder.readout(state).tobytes() == env.plan_vector(parent).tobytes()
        assert encoder.readout(left).tobytes() == env.plan_vector(join.left).tobytes()
        assert encoder.readout(right).tobytes() == env.plan_vector(join.right).tobytes()

    def test_encoding_leaves_nothing_on_the_plan(self, env, job_workload):
        plan = env.plan_with_hints(job_workload.by_id("6a").bound).plan
        before = pickle.dumps(plan)
        keys = {id(node): set(node.__dict__) for node in plan.walk()}
        env.plan_vector(plan)
        env.tree_conv.readout(composed(env.tree_conv, plan))
        assert pickle.dumps(plan) == before
        assert {id(node): set(node.__dict__) for node in plan.walk()} == keys


class TestSearchesScoreWhatPlanVectorWouldBuild:
    """neo, balsa and leon on the recorded split (``tools/record_lqo_digests.py``)."""

    @pytest.mark.parametrize("method", sorted(record_lqo_digests.METHODS))
    def test_plans_and_candidate_matrices(self, imdb_db, job_workload, recorded, method, monkeypatch):
        #: Per scoring step: the query's vector, the whole-tree encoder, the candidates.
        steps: list[tuple[np.ndarray, object, list[PlanNode]]] = []
        candidate_joins, scores = NeoOptimizer._candidate_joins, LeonOptimizer._scores

        def spying_candidate_joins(self, subplans, search, joins):
            candidates = candidate_joins(self, subplans, search, joins)
            if self._model.is_trained:
                whole_tree = self.env.tree_conv.encode_plan
                steps.append((self.env.query_vector(search.query), whole_tree, [join.plan for join, *_ in candidates]))
            return candidates

        def spying_scores(self, search, candidates):
            if search.encoder is not None:
                plans = [subplan.plan for subplan in candidates]
                steps.append((self.env.query_vector(search.query), self.env.tree_conv.encode_plan, plans))
            return scores(self, search, candidates)

        monkeypatch.setattr(NeoOptimizer, "_candidate_joins", spying_candidate_joins)
        monkeypatch.setattr(LeonOptimizer, "_scores", spying_scores)
        with record_lqo_digests.scored_matrices() as matrices:
            digest = record_lqo_digests.search_digest(imdb_db, job_workload, method)
        assert digest == recorded["searches"][method]
        assert digest["matrices"] > 40 and len(steps) == len(matrices)
        for (query_vector, whole_tree, plans), matrix in zip(steps, matrices):
            expected = np.vstack([np.concatenate([query_vector, whole_tree(plan)]) for plan in plans])
            assert expected.tobytes() == matrix.tobytes()


class TestSearchBuildsWhatBestJoinBuilds:
    @pytest.mark.parametrize(
        "name, key", record_plan_digests.WORKLOADS, ids=[name for name, _ in record_plan_digests.WORKLOADS]
    )
    def test_every_step_of_a_left_deep_walk(self, imdb_db, stack_db, name, key):
        """Each join is built from the candidate ``JoinSearch.join`` costs; its
        record is the one ``join_input`` makes from the built node."""
        database = {"imdb": imdb_db, "stack": stack_db}[key]
        env = LQOEnvironment(database, seed=0)
        cost_model = env.planner.cost_model
        joins = 0
        for query in build_workload(name, database.schema).queries:
            search = JoinSearch(env, query.bound, trained=False)
            assert search.graph.connected, query.query_id
            scans = [search.scan(alias) for alias in search.query.aliases]
            built = scans[0]
            # Left-deep: join the first scan that shares a predicate with what is built.
            for _ in scans[1:]:
                scan, predicates = next(
                    (scan, predicates) for scan in scans
                    if not scan.mask & built.mask and (predicates := search.graph.predicates(built.mask, scan.mask))
                )
                joined = search.build(search.join(built, scan, predicates))
                expected = cost_model.best_join(
                    query.bound, built.plan, scan.plan, predicates=predicates, context=search.context
                )
                assert pickle.dumps(joined.plan) == pickle.dumps(expected), query.query_id
                assert joined.record == cost_model.join_input(query.bound, joined.plan, search.context)
                built = joined
                joins += 1
            plan, state = search.complete(built)
            assert state is None and plan is built.plan
        assert joins == sum(query.bound.num_relations - 1 for query in build_workload(name, database.schema).queries)


class TestSharedPlanningContext:
    QUERY_IDS = ("2a", "17a", "29a")

    def test_one_context_plans_every_hint_set_as_a_fresh_one_does(self, imdb_db, job_workload):
        planner = Planner(imdb_db)
        for query_id in self.QUERY_IDS:
            query = job_workload.by_id(query_id).bound
            hint_sets = (
                NO_HINTS,
                *BAO_HINT_SETS,
                HintSet(scan_methods={query.aliases[0]: ScanType.SEQ, query.aliases[-1]: ScanType.INDEX}),
                HintSet(toggles=OperatorToggles(nestloop=False)),
                HintSet.from_leading_prefix(query.aliases[:2]),
                HintSet.from_leading_prefix(query.aliases[-1:-4:-1]),
            )
            context = planner.cost_model.planning_context()
            for hints in hint_sets:
                planner.plan_cache = PlanCache()  # NO_HINTS and all_on share a cache key
                shared = planner.plan_with_info(query, hints, context=context)
                fresh = Planner(imdb_db, plan_cache=PlanCache()).plan_with_info(query, hints)
                assert pickle.dumps(shared.plan) == pickle.dumps(fresh.plan), (query_id, hints.describe())
                assert shared.strategy == fresh.strategy
            assert len(context.allowed) == len({(h.toggles, frozenset(h.scan_methods.items())) for h in hint_sets})

    def test_bao_plans_its_arms_on_one_context_as_on_six_fresh_ones(self, imdb_db, job_workload, monkeypatch):
        contexts: list[object] = []
        plan_with_info = Planner.plan_with_info

        def spy(self, query, hints=NO_HINTS, cache_key=None, context=None):
            contexts.append(context)
            return plan_with_info(self, query, hints, cache_key, context)

        monkeypatch.setattr(Planner, "plan_with_info", spy)
        bao = create_optimizer("bao", LQOEnvironment(imdb_db, seed=0))
        for query_id in self.QUERY_IDS:
            query = job_workload.by_id(query_id)
            contexts.clear()
            shared = [(arm.name, pickle.dumps(result.plan)) for arm, result, _ in bao._arm_plans(query)]
            assert len(contexts) == len(BAO_HINT_SETS) and contexts[0] is not None
            assert all(context is contexts[0] for context in contexts)
            fresh = [
                (arm.name, pickle.dumps(Planner(imdb_db, plan_cache=PlanCache()).plan_with_info(query.bound, arm).plan))
                for arm in BAO_HINT_SETS
            ]
            assert shared == fresh, query_id

    def test_shared_and_fresh_contexts_plan_every_hybridqo_hint_alike(self, imdb_db, job_workload, monkeypatch):
        planned: list[tuple[object, HintSet, bool, bytes]] = []
        plan_with_info = Planner.plan_with_info

        def spy(self, query, hints=HintSet(), cache_key=None, context=None):
            result = plan_with_info(self, query, hints, cache_key, context)
            planned.append((query, hints, context is not None, pickle.dumps(result.plan)))
            return result

        monkeypatch.setattr(Planner, "plan_with_info", spy)
        hybrid = create_optimizer("hybridqo", LQOEnvironment(imdb_db, seed=0))
        queries = job_workload.queries[::5][:20]
        assert len(queries) == 20
        for query in queries:
            hybrid._candidate_plans(query.bound)
        monkeypatch.undo()
        assert all(shared for _, _, shared, _ in planned)
        distinct = {(id(query), hints.canonical_key()): (query, hints, blob) for query, hints, _, blob in planned}
        assert len(distinct) > 400 and any(hints.leading for _, hints, _ in distinct.values())
        fresh = Planner(imdb_db, plan_cache=PlanCache())
        for query, hints, blob in distinct.values():
            assert pickle.dumps(fresh.plan_with_info(query, hints).plan) == blob
