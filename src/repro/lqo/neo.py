"""Neo: a value-network learned optimizer with greedy bottom-up plan search.

Neo (Marcus et al., VLDB 2019) trains a neural network that, given the query
encoding and the encoding of a (partial) plan, predicts the latency of the
best complete plan containing it.  Plans are constructed bottom-up: starting
from one sub-plan per relation, the search greedily applies the join whose
resulting partial plan has the lowest predicted value.  Training bootstraps
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

import numpy as np

from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.ml.nn import MLPRegressor
from repro.ml.replay import Experience, ReplayBuffer
from repro.optimizer.cost_model import PlanningContext
from repro.plans.physical import PlanNode, ScanNode, validate_plan
from repro.sql.binder import BoundQuery
from repro.workloads.workload import BenchmarkQuery


class NeoOptimizer(BaseOptimizer):
    """Value-network guided bottom-up plan search, bootstrapped from the DBMS."""

    name = "neo"
    #: Whether the candidate search is restricted to left-deep trees.
    left_deep_only = False
    #: Whether the replay buffer is restricted to the latest iteration when
    #: retraining (Balsa overrides this to be on-policy).
    on_policy = False
    #: Whether training executions are bounded by per-query timeouts (Balsa).
    use_timeouts = False
    #: Whether the initial experience uses cost-model estimates instead of
    #: executed latencies (Balsa's expert-free bootstrap).
    bootstrap_from_cost = False
    #: Whether plan encodings use the Tree-LSTM composition (RTOS).
    use_lstm_encoder = False

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
    def _features(self, query: BoundQuery, plan: PlanNode) -> np.ndarray:
        return self.env.query_plan_vector(query, plan, use_lstm=self.use_lstm_encoder)

    def _retrain(self, seed_offset: int = 0) -> None:
        features, targets = self._buffer.training_matrix(recent_only=self.on_policy)
        if len(targets) < 8:
            return
        self._model = MLPRegressor(
            input_size=self.env.query_plan_vector_size, seed=self.seed + 3 + seed_offset
        )
        self._model.fit(features, targets, epochs=50, seed=self.seed + seed_offset)

    # ------------------------------------------------------------------- search
    def _candidate_joins(
        self, query: BoundQuery, subplans: list[PlanNode], context: PlanningContext
    ) -> list[tuple[PlanNode, int, int]]:
        """``(join, left index, right index)`` of every join the next step may take."""
        cost_model = self.env.planner.cost_model
        pairs = list(combinations(range(len(subplans)), 2))
        if self.left_deep_only:
            # Left-deep: once a join exists it is the one tree that grows, so
            # only pairs containing it are candidates (scan-scan pairs would
            # start a second tree that no left-deep step can merge).
            grown = [k for k, plan in enumerate(subplans) if not isinstance(plan, ScanNode)]
            if grown:
                pairs = [pair for pair in pairs if grown[0] in pair]
        linked = [
            (i, j, query.joins_between(subplans[i].aliases, subplans[j].aliases)) for i, j in pairs
        ]
        candidates = []
        # Pairs connected by a predicate; cross products only when there is none.
        for i, j, predicates in [link for link in linked if link[2]] or linked:
            orientations = [(i, j), (j, i)]
            if self.left_deep_only:
                # The right input of a left-deep join is a base relation.
                orientations = [
                    (left, right) for left, right in orientations
                    if isinstance(subplans[right], ScanNode)
                ]
            for left_index, right_index in orientations:
                join = cost_model.best_join(
                    query, subplans[left_index], subplans[right_index],
                    predicates=predicates, context=context,
                )
                candidates.append((join, left_index, right_index))
        return candidates

    def search_plan(self, query: BoundQuery) -> PlanNode:
        """Greedy bottom-up construction guided by the value network."""
        cost_model = self.env.planner.cost_model
        # One planning context and one encoder state per subplan, both locals
        # of this search: a step costs and encodes only the joins it adds.
        context = cost_model.planning_context()
        subplans: list[PlanNode] = [
            cost_model.best_scan(query, alias, context=context) for alias in query.aliases
        ]
        trained = self._model.is_trained
        if trained:
            encoder = self.env.tree_encoder(self.use_lstm_encoder)
            states = [encoder.node_state(scan) for scan in subplans]
            query_vector = self.env.query_vector(query)
        while len(subplans) > 1:
            candidates = self._candidate_joins(query, subplans, context)
            if trained:
                joined = [
                    encoder.node_state(join, states[left_index], states[right_index])
                    for join, left_index, right_index in candidates
                ]
                matrix = np.vstack(
                    [np.concatenate([query_vector, encoder.readout(state)]) for state in joined]
                )
                scores = self._model.predict(matrix)
            else:
                scores = np.asarray([join.estimated_cost for join, _, _ in candidates])
            best = int(np.argmin(scores))
            join, left_index, right_index = candidates[best]
            kept = [k for k in range(len(subplans)) if k not in (left_index, right_index)]
            subplans = [subplans[k] for k in kept] + [join]
            if trained:
                states = [states[k] for k in kept] + [joined[best]]
        validate_plan(subplans[0], query.aliases)
        return subplans[0]

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
            self._bootstrap(queries)
            self._retrain(seed_offset=0)
            for iteration in range(1, self.training_iterations + 1):
                for query in queries:
                    plan = self.search_plan(query.bound)
                    latency, timed_out = self.env.training_latency(
                        query.bound, plan, timeout_ms=self._training_timeout(query)
                    )
                    best = self._timeout_reference.get(query.query_id)
                    if not timed_out and (best is None or latency < best):
                        self._timeout_reference[query.query_id] = latency
                    self._buffer.add(
                        Experience(
                            query_id=query.query_id,
                            features=self._features(query.bound, plan),
                            latency_ms=latency,
                            iteration=iteration,
                            timed_out=timed_out,
                        )
                    )
                self._retrain(seed_offset=iteration)
            return self.training_iterations

        return self._timed_fit(body, train_queries)

    def _bootstrap(self, queries: list[BenchmarkQuery]) -> None:
        """Seed the replay buffer from the expert (or the cost model, for Balsa)."""
        for query in queries:
            result = self.env.plan_with_hints(query.bound)
            features = self._features(query.bound, result.plan)
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
            hints = self.env.hints_from_plan(q.bound, plan)
            planning_time = self.env.hinted_planning_time_ms(q.bound)
            return plan, hints, planning_time, {"nodes": plan.node_count()}

        return self._timed_inference(body, query)
