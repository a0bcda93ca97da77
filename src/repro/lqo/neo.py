"""Neo: a value-network learned optimizer with greedy bottom-up plan search.

Neo (Marcus et al., VLDB 2019) trains a neural network that, given the query
encoding and the encoding of a (partial) plan, predicts the latency of the
best complete plan containing it.  Plans are constructed bottom-up: starting
from one sub-plan per relation, the search greedily applies the join whose
resulting partial plan has the lowest predicted value, on the shared
:class:`~repro.lqo.search.JoinSearch` state.  Training bootstraps
from the expert (PostgreSQL's plans and their measured latencies) and then
iterates: plan the training queries with the current model, execute the plans,
add the observations to the replay buffer, retrain.

Simplifications relative to the original (docs/ARCHITECTURE.md, "The LQO search
loop"): the join method of each candidate join is chosen by the cost model
rather than by the network, and the value network scores the newly formed
sub-plan (plus the query encoding) rather than the full forest of remaining
sub-plans.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

import numpy as np

from repro import simclock
from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.lqo.search import JoinSearch, Subplan
from repro.ml.nn import MLPRegressor
from repro.ml.replay import Experience, ReplayBuffer
from repro.optimizer.cost_model import PlanningContext
from repro.plans.physical import PlanNode
from repro.sql.binder import BoundQuery
from repro.workloads.workload import BenchmarkQuery


class NeoOptimizer(BaseOptimizer):
    """Value-network guided bottom-up plan search, bootstrapped from the DBMS."""

    name = "neo"
    #: Whether the replay buffer is restricted to the latest iteration when
    #: retraining (Balsa overrides this to be on-policy).
    on_policy = False
    #: Whether training executions are bounded by per-query timeouts (Balsa).
    use_timeouts = False
    #: Whether the initial experience uses cost-model estimates instead of
    #: executed latencies (Balsa's expert-free bootstrap).
    bootstrap_from_cost = False

    def __init__(
        self,
        env: LQOEnvironment,
        training_iterations: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__(env)
        self.training_iterations = training_iterations
        self.seed = seed
        self._buffer = ReplayBuffer()
        self._model = MLPRegressor(input_size=env.query_plan_vector_size, seed=seed + 3)
        self._timeout_reference: dict[str, float] = {}

    # ------------------------------------------------------------------ features
    def _features(self, vector: np.ndarray, plan: PlanNode, state: Any = None) -> np.ndarray:
        """``env.query_plan_vector`` of a plan from its query's vector — and
        from the plan's encoder state when the search that built it kept one."""
        if state is None:
            return np.concatenate([vector, self.env.plan_vector(plan)])
        return np.concatenate([vector, self.env.tree_conv.readout(state)])

    def _retrain(self, seed_offset: int = 0) -> None:
        self._model = self._buffer.refit(
            self._model, self.seed + 3 + seed_offset, self.seed + seed_offset, epochs=50, recent_only=self.on_policy
        )

    # ------------------------------------------------------------------- search
    def _candidate_joins(
        self, subplans: list[Subplan], search: JoinSearch, joins: dict
    ) -> list[tuple[Subplan, np.ndarray | None, int, int]]:
        """``(join, its value-model row, left index, right index)`` of every join the next step may take.

        ``joins`` keeps every join the search has costed and encoded, with
        its value-model row, by the masks of its two inputs: a subplan covers
        its mask for the rest of the search, so a step costs and encodes only
        the joins with the subplan the step before built.
        """
        pairs = combinations(range(len(subplans)), 2)
        linked = [(i, j, search.graph.predicates(subplans[i].mask, subplans[j].mask)) for i, j in pairs]
        candidates = []
        # Pairs connected by a predicate; cross products only when there is none.
        for i, j, predicates in [link for link in linked if link[2]] or linked:
            for left_index, right_index in ((i, j), (j, i)):
                left, right = subplans[left_index], subplans[right_index]
                known = joins.get((left.mask, right.mask))
                if known is None:
                    join = search.join(left, right, predicates)
                    known = joins[left.mask, right.mask] = (join, None if search.encoder is None else search.row(join))
                candidates.append((*known, left_index, right_index))
        return candidates

    def search_plan(self, query: BoundQuery) -> PlanNode:
        """Greedy bottom-up construction guided by the value network."""
        return self._search(query)[0]

    def _search(
        self, query: BoundQuery, vector: np.ndarray | None = None, context: PlanningContext | None = None
    ) -> tuple[PlanNode, Any]:
        """:meth:`search_plan`, returning the plan beside its encoder state.

        ``vector`` and ``context`` are the query's vector and planning
        context when the caller searches the query many times (a fit).
        Candidates are costed and encoded as records, and a step builds
        one node, its winner's.
        """
        search = JoinSearch(self.env, query, self._model.is_trained, context, vector)
        joins: dict[tuple[int, int], tuple[Subplan, np.ndarray | None]] = {}
        subplans = [search.scan(alias) for alias in search.query.aliases]
        while len(subplans) > 1:
            candidates = self._candidate_joins(subplans, search, joins)
            if search.encoder is not None:
                scores = self._model.predict(np.vstack([row for _, row, _, _ in candidates]))
            else:
                scores = np.asarray([join.plan.estimated_cost for join, _, _, _ in candidates])
            join, _, left_index, right_index = candidates[int(np.argmin(scores))]
            kept = [k for k in range(len(subplans)) if k not in (left_index, right_index)]
            subplans = [subplans[k] for k in kept] + [search.build(join)]
        return search.complete(subplans[0])

    # -------------------------------------------------------------------- timeouts
    def _training_timeout(self, query: BenchmarkQuery) -> float | None:
        if not self.use_timeouts:
            return None
        reference = self._timeout_reference.get(query.query_id)
        if reference is None:
            return None
        return max(2.0 * reference, 5.0)

    # ------------------------------------------------------------------- training
    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        def body(queries: list[BenchmarkQuery]) -> int:
            # One query vector and one planning context per training query for
            # the whole fit: every search of it and every feature row share them.
            cost_model = self.env.planner.cost_model
            fitted = [
                (query, self.env.query_vector(query.bound), cost_model.planning_context())
                for query in queries
            ]
            self._bootstrap(fitted)
            self._retrain(seed_offset=0)
            for iteration in range(1, self.training_iterations + 1):
                for query, vector, context in fitted:
                    plan, state = self._search(query.bound, vector, context)
                    latency, timed_out = self.env.training_latency(
                        query.bound, plan, timeout_ms=self._training_timeout(query)
                    )
                    best = self._timeout_reference.get(query.query_id)
                    if not timed_out and (best is None or latency < best):
                        self._timeout_reference[query.query_id] = latency
                    self._buffer.add(
                        Experience(
                            query_id=query.query_id,
                            features=self._features(vector, plan, state),
                            latency_ms=latency,
                            iteration=iteration,
                            timed_out=timed_out,
                        )
                    )
                self._retrain(seed_offset=iteration)
            return self.training_iterations

        return self._timed_fit(body, train_queries)

    def _bootstrap(self, fitted: list[tuple[BenchmarkQuery, np.ndarray, PlanningContext]]) -> None:
        """Seed the replay buffer from the expert (or the cost model, for Balsa)."""
        for query, vector, context in fitted:
            result = self.env.plan_with_hints(query.bound, context=context)
            features = self._features(vector, result.plan)
            if self.bootstrap_from_cost:
                # Balsa: no expert demonstrations — pre-train on cost estimates.
                pseudo_latency = max(float(result.plan.estimated_cost), 0.01)
                self._buffer.add(
                    Experience(
                        query_id=query.query_id,
                        features=features,
                        latency_ms=pseudo_latency,
                        iteration=0,
                        metadata={"source": "cost-model"},
                    )
                )
            else:
                latency, timed_out = self.env.training_latency(query.bound, result.plan)
                if not timed_out:
                    self._timeout_reference[query.query_id] = latency
                self._buffer.add(
                    Experience(
                        query_id=query.query_id,
                        features=features,
                        latency_ms=latency,
                        iteration=0,
                        timed_out=timed_out,
                        metadata={"source": "postgres"},
                    )
                )

    # ------------------------------------------------------------------ inference
    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        def body(q: BenchmarkQuery):
            plan = self.search_plan(q.bound)
            planning_time = simclock.hinted_planning_ms(q.bound)
            return plan, planning_time, {"nodes": plan.node_count()}

        return self._timed_inference(body, query)
