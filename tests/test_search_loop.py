"""The LQO search loop: one planning context per search, one encoding per plan node.

Three contracts, each pinned byte for byte:

* an encoder state composed node by node reads out to the bytes of the
  whole-tree encoding (and those are the bytes recorded at the parent commit),
* a search that keeps a state beside each subplan scores the candidate matrix
  ``plan_vector`` per candidate would build and returns the recorded plans,
* a planning context shared across HybridQO's prefix hints yields the plans a
  fresh context per call yields — and one made for other toggles or scan
  methods is refused.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import OptimizerError
from repro.lqo import create_optimizer
from repro.lqo.base import LQOEnvironment
from repro.lqo.leon import _RankedSearch
from repro.lqo.neo import NeoOptimizer
from repro.optimizer.planner import Planner
from repro.plans.hints import HintSet, OperatorToggles
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
        assert sum(len(plans) for plans in golden_plans.values()) > 3000
        envs = {"imdb": LQOEnvironment(imdb_db, seed=0), "stack": LQOEnvironment(stack_db, seed=0)}
        for name, key in record_plan_digests.WORKLOADS:
            for use_lstm in (False, True):
                encoder = envs[key].tree_encoder(use_lstm)
                for plan in golden_plans[name]:
                    whole = envs[key].plan_vector(plan, use_lstm)
                    assert whole.dtype == np.float64 and whole.shape == (encoder.output_size,)
                    assert encoder.readout(composed(encoder, plan)).tobytes() == whole.tobytes()

    def test_encodings_are_the_bytes_recorded_at_the_parent(self, imdb_db, golden_plans, recorded):
        assert len(golden_plans["job"]) == recorded["encoded_plans"]
        digests = record_lqo_digests.encoding_digests(LQOEnvironment(imdb_db, seed=0), golden_plans["job"])
        assert digests == recorded["encodings"]

    @pytest.mark.parametrize("use_lstm", [False, True])
    def test_a_join_composed_from_separately_computed_child_states(self, env, job_workload, use_lstm):
        query = job_workload.by_id("17a").bound
        encoder = env.tree_encoder(use_lstm)
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
            assert encoder.readout(state).tobytes() == env.plan_vector(parent, use_lstm).tobytes()
        assert encoder.readout(left).tobytes() == env.plan_vector(join.left, use_lstm).tobytes()
        assert encoder.readout(right).tobytes() == env.plan_vector(join.right, use_lstm).tobytes()

    def test_encoding_leaves_nothing_on_the_plan(self, env, job_workload):
        plan = env.plan_with_hints(job_workload.by_id("6a").bound).plan
        before = pickle.dumps(plan)
        keys = {id(node): set(node.__dict__) for node in plan.walk()}
        for use_lstm in (False, True):
            env.plan_vector(plan, use_lstm)
            env.tree_encoder(use_lstm).readout(composed(env.tree_encoder(use_lstm), plan))
        assert pickle.dumps(plan) == before
        assert {id(node): set(node.__dict__) for node in plan.walk()} == keys


class TestSearchesScoreWhatPlanVectorWouldBuild:
    """neo, balsa, rtos and leon on the recorded split (``tools/record_lqo_digests.py``)."""

    @pytest.mark.parametrize("method", sorted(record_lqo_digests.METHODS))
    def test_plans_and_candidate_matrices(self, imdb_db, job_workload, recorded, method, monkeypatch):
        #: Per scoring step: the query's vector, the whole-tree encoder, the candidates.
        steps: list[tuple[np.ndarray, object, list[PlanNode]]] = []
        candidate_joins, scores = NeoOptimizer._candidate_joins, _RankedSearch.scores

        def spying_candidate_joins(self, query, subplans, context):
            candidates = candidate_joins(self, query, subplans, context)
            if self._model.is_trained:
                whole_tree = self.env.tree_encoder(self.use_lstm_encoder).encode_plan
                steps.append((self.env.query_vector(query), whole_tree, [join for join, _, _ in candidates]))
            return candidates

        def spying_scores(self, candidates):
            if self.encoder is not None:
                steps.append((self.query_vector, self.encoder.encode_plan, [plan for plan, _ in candidates]))
            return scores(self, candidates)

        monkeypatch.setattr(NeoOptimizer, "_candidate_joins", spying_candidate_joins)
        monkeypatch.setattr(_RankedSearch, "scores", spying_scores)
        with record_lqo_digests.scored_matrices() as matrices:
            digest = record_lqo_digests.search_digest(imdb_db, job_workload, method)
        assert digest == recorded["searches"][method]
        assert digest["matrices"] > 40 and len(steps) == len(matrices)
        for (query_vector, whole_tree, plans), matrix in zip(steps, matrices):
            expected = np.vstack([np.concatenate([query_vector, whole_tree(plan)]) for plan in plans])
            assert expected.tobytes() == matrix.tobytes()


class TestSharedPlanningContext:
    def test_a_context_made_for_other_hints_is_refused(self, imdb_db, job_workload):
        planner = Planner(imdb_db, plan_cache=PlanCache())
        query = job_workload.by_id("2a").bound
        no_nestloop = HintSet(toggles=OperatorToggles(nestloop=False))
        forced_scan = HintSet(scan_methods={query.aliases[0]: ScanType.SEQ})
        prefix = HintSet.from_leading_prefix(query.aliases[:2])
        plain = planner.cost_model.planning_context()
        for made_for, asked in (
            (plain, no_nestloop), (plain, forced_scan),
            (planner.cost_model.planning_context(no_nestloop), prefix),
            (planner.cost_model.planning_context(forced_scan), no_nestloop),
        ):
            with pytest.raises(OptimizerError, match="planning context"):
                planner.plan_with_info(query, asked, context=made_for)
        # ``leading`` and ``join_methods`` are not what a context memoises.
        assert planner.plan_with_info(query, prefix, context=plain).plan.aliases == frozenset(query.aliases)
        toggled = planner.cost_model.planning_context(no_nestloop)
        assert planner.plan_with_info(query, no_nestloop, context=toggled).strategy

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
