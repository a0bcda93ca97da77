"""HybridQO: cost-based MCTS hint generation plus a learned plan selector.

HybridQO (Yu et al., VLDB 2022) mixes cost and latency signals in two stages
(Section 2 of the paper): a Monte-Carlo tree search over the top of the join
order explores promising "leading" prefixes using the (cheap) cost model as
its target, each prefix is turned into a hint and handed to the DBMS to obtain
a candidate plan, and a learned latency model picks the candidate to execute.
Because only the prefix is constrained, the DBMS still optimizes the rest of
the join order — which is why HybridQO tends to stay close to PostgreSQL and
occasionally beats it (Figures 4 and 5).
"""

from __future__ import annotations

import math

import numpy as np

from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.ml.nn import MLPRegressor
from repro.ml.replay import Experience, ReplayBuffer
from repro.optimizer.cost_model import PlanningContext
from repro.optimizer.join_graph import JoinGraph
from repro.optimizer.planner import PlannerResult
from repro.plans.hints import NO_HINTS, HintSet
from repro.sql.binder import BoundQuery
from repro.workloads.workload import BenchmarkQuery


class _MCTSNode:
    """A node of the prefix search tree: a partial join-order prefix."""

    __slots__ = ("prefix", "children", "visits", "total_reward")

    def __init__(self, prefix: tuple[str, ...]) -> None:
        self.prefix = prefix
        self.children: dict[str, "_MCTSNode"] = {}
        self.visits = 0
        self.total_reward = 0.0

    def ucb_score(self, parent_visits: int, exploration: float) -> float:
        if self.visits == 0:
            return float("inf")
        mean = self.total_reward / self.visits
        return mean + exploration * math.sqrt(math.log(max(parent_visits, 1)) / self.visits)


class HybridQOOptimizer(BaseOptimizer):
    """MCTS-generated leading hints with a learned latency-based selector."""

    name = "hybridqo"

    def __init__(
        self,
        env: LQOEnvironment,
        mcts_iterations: int = 40,
        prefix_length: int = 3,
        top_k_prefixes: int = 3,
        exploration: float = 0.7,
        seed: int = 0,
    ) -> None:
        super().__init__(env)
        self.mcts_iterations = mcts_iterations
        self.prefix_length = prefix_length
        self.top_k_prefixes = top_k_prefixes
        self.exploration = exploration
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._buffer = ReplayBuffer()
        self._model = MLPRegressor(input_size=env.query_plan_vector_size, seed=seed + 11)

    # ------------------------------------------------------------------ MCTS
    def _rollout_cost(self, query: BoundQuery, prefix: tuple[str, ...], context: PlanningContext) -> float:
        """Cost of completing a prefix greedily (the MCTS reward signal)."""
        hints = HintSet.from_leading_prefix(prefix) if prefix else NO_HINTS
        result = self.env.plan_with_hints(query, hints, context)
        return float(result.plan.estimated_cost)

    def _candidate_prefixes(self, query: BoundQuery, context: PlanningContext) -> list[tuple[str, ...]]:
        """Run MCTS over join-order prefixes and return the most visited ones."""
        aliases = list(query.aliases)
        max_len = min(self.prefix_length, len(aliases))
        root = _MCTSNode(())
        baseline = self._rollout_cost(query, (), context)
        graph = JoinGraph(query)

        def expandable(node: _MCTSNode) -> list[str]:
            remaining = [a for a in aliases if a not in node.prefix]
            if not node.prefix:
                return remaining
            prefix = sum(graph.bit_of[a] for a in node.prefix)
            graph_connected = [a for a in remaining if graph.predicates(prefix, graph.bit_of[a])]
            return graph_connected or remaining

        for _ in range(self.mcts_iterations):
            node = root
            path = [root]
            # Selection / expansion.
            while len(node.prefix) < max_len:
                options = expandable(node)
                if not options:
                    break
                unvisited = [a for a in options if a not in node.children]
                if unvisited:
                    alias = str(self._rng.choice(unvisited))
                    child = _MCTSNode(node.prefix + (alias,))
                    node.children[alias] = child
                    node = child
                    path.append(node)
                    break
                node = max(
                    node.children.values(),
                    key=lambda c: c.ucb_score(node.visits, self.exploration),
                )
                path.append(node)
            # Simulation: relative cost improvement over the unhinted plan.
            cost = self._rollout_cost(query, node.prefix, context)
            reward = float(np.clip((baseline - cost) / max(baseline, 1e-6), -1.0, 1.0))
            # Backpropagation.
            for visited in path:
                visited.visits += 1
                visited.total_reward += reward

        # Collect the most visited prefixes of maximal depth.
        prefixes: list[tuple[tuple[str, ...], int]] = []

        def collect(node: _MCTSNode) -> None:
            for child in node.children.values():
                prefixes.append((child.prefix, child.visits))
                collect(child)

        collect(root)
        prefixes.sort(key=lambda item: (-len(item[0]), -item[1]))
        chosen = [prefix for prefix, _ in prefixes[: self.top_k_prefixes]]
        if not chosen:
            chosen = [()]
        return chosen

    def _candidate_plans(self, query: BoundQuery) -> list[tuple[HintSet, PlannerResult]]:
        """Turn MCTS prefixes into hints and plan each candidate through the DBMS."""
        # The query is planned some 45 times (rollouts + candidates): one
        # context serves them all.
        context = self.env.planner.cost_model.planning_context()
        candidates: list[tuple[HintSet, PlannerResult]] = [
            (NO_HINTS, self.env.plan_with_hints(query, NO_HINTS, context))
        ]
        for prefix in self._candidate_prefixes(query, context):
            if not prefix:
                continue
            hints = HintSet.from_leading_prefix(prefix, name=f"lead:{'-'.join(prefix)}")
            candidates.append((hints, self.env.plan_with_hints(query, hints, context)))
        return candidates

    # ------------------------------------------------------------------ training
    def _retrain(self, seed_offset: int = 0) -> None:
        self._model = self._buffer.refit(self._model, self.seed + 11 + seed_offset, self.seed + seed_offset, epochs=40)

    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        def body(queries: list[BenchmarkQuery]) -> int:
            for query in queries:
                candidates = self._candidate_plans(query.bound)
                for hints, result in candidates:
                    latency, timed_out = self.env.training_latency(query.bound, result.plan)
                    self._buffer.add(
                        Experience(
                            query_id=query.query_id,
                            features=self.env.query_plan_vector(query.bound, result.plan),
                            latency_ms=latency,
                            timed_out=timed_out,
                            metadata={"hint": hints.name},
                        )
                    )
            self._retrain()
            return 1

        return self._timed_fit(body, train_queries)

    # ------------------------------------------------------------------ inference
    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        def body(q: BenchmarkQuery):
            candidates = self._candidate_plans(q.bound)
            if self._model.is_trained:
                matrix = np.vstack(
                    [self.env.query_plan_vector(q.bound, result.plan) for _, result in candidates]
                )
                scores = self._model.predict(matrix)
            else:
                scores = np.asarray([result.plan.estimated_cost for _, result in candidates])
            best = int(np.argmin(scores))
            hints, result = candidates[best]
            return result.plan, result.planning_time_ms, {
                "chosen_hint": hints.name or "postgres",
                "n_candidates": len(candidates),
            }

        return self._timed_inference(body, query)
