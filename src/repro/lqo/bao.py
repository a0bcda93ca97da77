"""Bao: steering the classical optimizer through hint sets.

Bao (Marcus et al., SIGMOD 2021) does not construct plans itself.  For every
query it considers a small family of hint sets (combinations of the
``enable_*`` operator switches), lets the DBMS plan the query under each hint
set, predicts the latency of each resulting plan with a tree-convolution
regression model — using *only* the plan encoding, no query encoding, exactly
as Table 1 records — and sends the query to the DBMS with the winning hint
set.  Because Bao runs inside PostgreSQL as an extension, its inference time
is accounted as part of the planning time in the paper's figures.

Training follows Bao's "time series" regime: queries arrive in a stream, arms
are chosen with an epsilon-greedy/Thompson-flavoured policy, the observed
latency is appended to the experience and the model is refreshed periodically.
In our framework Bao only sees the training split (Section 8.1.4), which it
may traverse several times.
"""

from __future__ import annotations

import numpy as np

from repro.lqo.base import BaseOptimizer, LQOEnvironment, PlannedQuery, TrainingReport
from repro.ml.nn import MLPRegressor
from repro.ml.replay import Experience, ReplayBuffer
from repro.plans.hints import BAO_HINT_SETS
from repro.workloads.workload import BenchmarkQuery


class BaoOptimizer(BaseOptimizer):
    """Hint-set selection with a plan-encoding-only latency model."""

    name = "bao"
    integrates_with_dbms = True

    def __init__(
        self,
        env: LQOEnvironment,
        training_passes: int = 2,
        retrain_every: int = 20,
        epsilon: float = 0.15,
        seed: int = 0,
    ) -> None:
        super().__init__(env)
        self.training_passes = training_passes
        self.retrain_every = retrain_every
        self.epsilon = epsilon
        self._rng = np.random.default_rng(seed)
        self._buffer = ReplayBuffer()
        self._model = MLPRegressor(input_size=env.plan_vector_size, seed=seed + 1)

    # ------------------------------------------------------------------ features
    def _arm_plans(self, query: BenchmarkQuery):
        """Plan the query under every arm; returns list of (arm, planner_result, vector)."""
        out = []
        for arm in BAO_HINT_SETS:
            result = self.env.plan_with_hints(query.bound, arm)
            vector = self.env.plan_vector(result.plan)
            out.append((arm, result, vector))
        return out

    def _predict(self, vectors: np.ndarray) -> np.ndarray:
        if not self._model.is_trained:
            return np.zeros(len(vectors))
        return self._model.predict(vectors)

    def _retrain(self, seed_offset: int = 0) -> None:
        features, targets = self._buffer.training_matrix()
        if len(targets) < 8:
            return
        self._model = MLPRegressor(input_size=self.env.plan_vector_size, seed=1 + seed_offset)
        self._model.fit(features, targets, epochs=40, seed=seed_offset)

    # ------------------------------------------------------------------ training
    def fit(self, train_queries: list[BenchmarkQuery]) -> TrainingReport:
        def body(queries: list[BenchmarkQuery]) -> int:
            iteration = 0
            since_retrain = 0
            for sweep in range(self.training_passes):
                for query in queries:
                    iteration += 1
                    arm_plans = self._arm_plans(query)
                    vectors = np.vstack([vec for _, _, vec in arm_plans])
                    if sweep == 0:
                        # First pass: explore every arm once to seed the experience,
                        # the role Bao's 2,500 extra generated queries play originally.
                        chosen_indices = range(len(arm_plans))
                    else:
                        predictions = self._predict(vectors)
                        if self._rng.random() < self.epsilon:
                            chosen_indices = [int(self._rng.integers(len(arm_plans)))]
                        else:
                            chosen_indices = [int(np.argmin(predictions))]
                    for index in chosen_indices:
                        arm, result, vector = arm_plans[index]
                        latency, timed_out = self.env.training_latency(query.bound, result.plan)
                        self._buffer.add(
                            Experience(
                                query_id=query.query_id,
                                features=vector,
                                latency_ms=latency,
                                iteration=sweep,
                                timed_out=timed_out,
                                metadata={"arm": arm.name},
                            )
                        )
                    since_retrain += 1
                    if since_retrain >= self.retrain_every:
                        self._retrain(seed_offset=iteration)
                        since_retrain = 0
            self._retrain(seed_offset=iteration + 1)
            return self.training_passes

        return self._timed_fit(body, train_queries)

    # ------------------------------------------------------------------ inference
    def plan_query(self, query: BenchmarkQuery) -> PlannedQuery:
        def body(q: BenchmarkQuery):
            arm_plans = self._arm_plans(q)
            vectors = np.vstack([vec for _, _, vec in arm_plans])
            predictions = self._predict(vectors)
            best = int(np.argmin(predictions))
            arm, result, _ = arm_plans[best]
            metadata = {
                "chosen_arm": arm.name,
                "predicted_ms": float(np.exp(predictions[best])) if self._model.is_trained else None,
                "strategy": result.strategy,
            }
            return result.plan, arm, result.planning_time_ms, metadata

        return self._timed_inference(body, query)
