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
from typing import Any, NamedTuple

import numpy as np

from repro import simclock
from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.ml.nn import MLPRegressor
from repro.ml.replay import Experience, ReplayBuffer
from repro.ml.tree_models import TreeConvolutionEncoder
from repro.optimizer.cost_model import JoinInput, PlanningContext
from repro.optimizer.join_graph import JoinGraph
from repro.plans.physical import JoinCandidate, PlanNode, validate_plan
from repro.plans.hints import NO_HINTS
from repro.sql.binder import BoundQuery, JoinPredicate
from repro.workloads.workload import BenchmarkQuery


class _Subplan(NamedTuple):
    """A subplan a search holds, beside what costing and encoding a join with it reads."""

    plan: PlanNode
    #: One bit per alias of ``query.aliases`` it covers.
    mask: int
    record: JoinInput
    #: Its encoder state; ``None`` while the value model is untrained.
    state: Any


class _GreedySearch:
    """One search over one query.

    Every candidate join it costs and encodes is kept by the alias masks of
    its two inputs.  A subplan covers its mask for the rest of the search,
    so a step costs and encodes only the joins with the subplan the step
    before built.
    """

    def __init__(
        self, env: LQOEnvironment, query: BoundQuery, context: PlanningContext,
        vector: np.ndarray | None, encoder: TreeConvolutionEncoder | None,
    ) -> None:
        self.query = query
        self.cost_model = env.planner.cost_model
        self.context = context
        self.vector = vector
        self.encoder = encoder
        self.graph = JoinGraph(query)
        self.join_types = self.cost_model.allowed_operators(NO_HINTS, context).join_types
        #: ``(left mask, right mask) -> (candidate, its state, its scored row)``.
        self.joins: dict[tuple[int, int], tuple[JoinCandidate, Any, np.ndarray | None]] = {}

    def scan(self, alias: str) -> _Subplan:
        scan = self.cost_model.best_scan(self.query, alias, context=self.context)
        state = None if self.encoder is None else self.encoder.node_state(scan)
        return _Subplan(
            scan, self.graph.bit_of[alias], self.cost_model.join_input(self.query, scan, self.context), state
        )

    def join(self, left: _Subplan, right: _Subplan, predicates: list[JoinPredicate]) -> JoinCandidate:
        """The cheapest join of ``left`` to ``right``, costed (and encoded) once per search."""
        key = (left.mask, right.mask)
        known = self.joins.get(key)
        if known is None:
            candidate = self.cost_model.candidate_join(
                self.query, self.join_types, left.plan, right.plan, left.record, right.record, predicates,
                self.context,
            )
            state = row = None
            if self.encoder is not None:
                state = self.encoder.node_state(candidate, left.state, right.state)
                row = np.concatenate([self.vector, self.encoder.readout(state)])
            known = self.joins[key] = (candidate, state, row)
        return known[0]

    def row(self, left: _Subplan, right: _Subplan) -> np.ndarray:
        """The value model's input for the join of ``left`` to ``right``: query vector, then plan vector."""
        return self.joins[left.mask, right.mask][2]

    def joined(self, left: _Subplan, right: _Subplan) -> _Subplan:
        """The subplan a step keeps: the join of ``left`` to ``right`` built, beside its record and state."""
        join, state, _ = self.joins[left.mask, right.mask]
        estimates = (join.estimated_rows, join.estimated_cost)
        return _Subplan(
            self.cost_model.build_join(self.query, join),
            left.mask | right.mask,
            self.cost_model.joined_input(left.record, right.record, estimates),
            state,
        )


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
        features, targets = self._buffer.training_matrix(recent_only=self.on_policy)
        if len(targets) < 8:
            return
        self._model = MLPRegressor(
            input_size=self.env.query_plan_vector_size, seed=self.seed + 3 + seed_offset
        )
        self._model.fit(features, targets, epochs=50, seed=self.seed + seed_offset)

    # ------------------------------------------------------------------- search
    def _candidate_joins(
        self, query: BoundQuery, subplans: list[_Subplan], search: _GreedySearch
    ) -> list[tuple[JoinCandidate, int, int]]:
        """``(join, left index, right index)`` of every join the next step may take."""
        pairs = combinations(range(len(subplans)), 2)
        linked = [(i, j, search.graph.predicates(subplans[i].mask, subplans[j].mask)) for i, j in pairs]
        candidates = []
        # Pairs connected by a predicate; cross products only when there is none.
        for i, j, predicates in [link for link in linked if link[2]] or linked:
            for left_index, right_index in ((i, j), (j, i)):
                join = search.join(subplans[left_index], subplans[right_index], predicates)
                candidates.append((join, left_index, right_index))
        return candidates

    def search_plan(self, query: BoundQuery) -> PlanNode:
        """Greedy bottom-up construction guided by the value network."""
        return self._search(query).plan

    def _search(
        self, query: BoundQuery, vector: np.ndarray | None = None, context: PlanningContext | None = None
    ) -> _Subplan:
        """:meth:`search_plan`, returning the plan beside its encoder state.

        ``vector`` and ``context`` are the query's vector and planning
        context when the caller searches the query many times (a fit).
        Candidates are costed and encoded as records; a step builds one
        node, its winner's.
        """
        if context is None:
            context = self.env.planner.cost_model.planning_context()
        encoder = None
        if self._model.is_trained:
            encoder = self.env.tree_conv
            if vector is None:
                vector = self.env.query_vector(query)
        search = _GreedySearch(self.env, query, context, vector, encoder)
        subplans = [search.scan(alias) for alias in query.aliases]
        while len(subplans) > 1:
            candidates = self._candidate_joins(query, subplans, search)
            pairs = [(subplans[i], subplans[j]) for _, i, j in candidates]
            if encoder is not None:
                scores = self._model.predict(np.vstack([search.row(left, right) for left, right in pairs]))
            else:
                scores = np.asarray([join.estimated_cost for join, _, _ in candidates])
            best = int(np.argmin(scores))
            _, left_index, right_index = candidates[best]
            kept = [k for k in range(len(subplans)) if k not in (left_index, right_index)]
            subplans = [subplans[k] for k in kept] + [search.joined(*pairs[best])]
        validate_plan(subplans[0].plan, query.aliases)
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
                    searched = self._search(query.bound, vector, context)
                    latency, timed_out = self.env.training_latency(
                        query.bound, searched.plan, timeout_ms=self._training_timeout(query)
                    )
                    best = self._timeout_reference.get(query.query_id)
                    if not timed_out and (best is None or latency < best):
                        self._timeout_reference[query.query_id] = latency
                    self._buffer.add(
                        Experience(
                            query_id=query.query_id,
                            features=self._features(vector, searched.plan, searched.state),
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
            hints = self.env.hints_from_plan(q.bound, plan)
            planning_time = simclock.hinted_planning_ms(q.bound)
            return plan, hints, planning_time, {"nodes": plan.node_count()}

        return self._timed_inference(body, query)
