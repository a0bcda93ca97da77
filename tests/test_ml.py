"""Tests for the numpy ML substrate: MLP, pairwise ranker, tree encoders, replay."""

import numpy as np
import pytest

from repro.encoding.plan_encoding import PlanTreeEncoder
from repro.errors import ModelError, NotTrainedError
from repro.ml.losses import from_log_latency, log_latency, mse_loss, pairwise_accuracy, q_error
from repro.ml.nn import MLPRegressor, PairwiseRanker
from repro.ml.replay import Experience, ReplayBuffer
from repro.ml.tree_models import TreeConvolutionEncoder
from repro.optimizer.planner import Planner


class TestMLPRegressor:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 6))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.0]) + 0.5
        model = MLPRegressor(input_size=6, hidden_sizes=(32,), seed=1, dropout=0.0)
        model.fit(x, y, epochs=120, seed=1)
        preds = model.predict(x[:50])
        assert mse_loss(preds, y[:50]) < np.var(y) * 0.2

    def test_predict_before_fit_raises(self):
        model = MLPRegressor(input_size=4)
        with pytest.raises(NotTrainedError):
            model.predict(np.zeros(4))

    def test_early_stopping_records_best_epoch(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=60)  # pure noise: validation should stop improving
        model = MLPRegressor(input_size=4, seed=2)
        history = model.fit(x, y, epochs=100, patience=5, seed=2)
        assert history.epochs_run <= 100
        assert history.best_epoch >= 0

    def test_shape_validation(self):
        model = MLPRegressor(input_size=3)
        with pytest.raises(ModelError):
            model.fit(np.zeros((5, 3)), np.zeros(4))
        with pytest.raises(ModelError):
            MLPRegressor(input_size=0)

    def test_predict_one_matches_predict(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 5))
        y = x.sum(axis=1)
        model = MLPRegressor(input_size=5, seed=4, dropout=0.0)
        model.fit(x, y, epochs=40)
        assert model.predict_one(x[0]) == pytest.approx(float(model.predict(x[:1])[0]))


class TestPairwiseRanker:
    def test_learns_to_rank_by_norm(self):
        rng = np.random.default_rng(5)
        fast = rng.normal(loc=0.0, size=(300, 6))
        slow = rng.normal(loc=1.5, size=(300, 6))
        ranker = PairwiseRanker(input_size=6, seed=6, dropout=0.0)
        ranker.fit_pairs(fast, slow, epochs=80)
        accuracy = pairwise_accuracy(ranker.score(fast[:100]), ranker.score(slow[:100]))
        assert accuracy > 0.85

    def test_prefer_consistent_with_score(self):
        rng = np.random.default_rng(7)
        fast = rng.normal(loc=0.0, size=(200, 4))
        slow = rng.normal(loc=2.0, size=(200, 4))
        ranker = PairwiseRanker(input_size=4, seed=8, dropout=0.0)
        ranker.fit_pairs(fast, slow, epochs=60)
        assert ranker.prefer(fast[0], slow[0]) == (
            float(ranker.score(fast[0:1])[0]) <= float(ranker.score(slow[0:1])[0])
        )

    def test_score_before_training_raises(self):
        ranker = PairwiseRanker(input_size=4)
        with pytest.raises(NotTrainedError):
            ranker.score(np.zeros(4))

    def test_mismatched_pair_shapes_raise(self):
        ranker = PairwiseRanker(input_size=4)
        with pytest.raises(ModelError):
            ranker.fit_pairs(np.zeros((3, 4)), np.zeros((4, 4)))


class TestTreeEncoders:
    @pytest.fixture(scope="class")
    def encoded_plans(self, imdb_db, job_workload):
        planner = Planner(imdb_db)
        plan_encoder = PlanTreeEncoder(imdb_db.schema)
        plans = {
            qid: planner.plan(job_workload.by_id(qid).bound) for qid in ("1a", "2a", "17a")
        }
        return plan_encoder, plans

    def test_tree_conv_fixed_size_and_deterministic(self, encoded_plans):
        plan_encoder, plans = encoded_plans
        encoder = TreeConvolutionEncoder(plan_encoder, hidden_size=32, seed=1)
        vectors = {qid: encoder.encode_plan(plan) for qid, plan in plans.items()}
        assert all(v.shape == (encoder.output_size,) for v in vectors.values())
        again = encoder.encode_plan(plans["1a"])
        assert np.allclose(again, vectors["1a"])

    def test_tree_conv_distinguishes_plans(self, encoded_plans):
        plan_encoder, plans = encoded_plans
        encoder = TreeConvolutionEncoder(plan_encoder, hidden_size=32, seed=1)
        assert not np.allclose(encoder.encode_plan(plans["1a"]), encoder.encode_plan(plans["2a"]))

    def test_tree_conv_values_are_finite(self, encoded_plans):
        plan_encoder, plans = encoded_plans
        encoder = TreeConvolutionEncoder(plan_encoder, hidden_size=24, seed=2)
        vector = encoder.encode_plan(plans["17a"])
        assert vector.shape == (encoder.output_size,)
        assert np.isfinite(vector).all()

    def test_invalid_hidden_size(self, encoded_plans):
        plan_encoder, _ = encoded_plans
        with pytest.raises(ModelError):
            TreeConvolutionEncoder(plan_encoder, hidden_size=0)


class TestLossesAndReplay:
    def test_q_error_symmetric(self):
        assert q_error(np.array([10.0]), np.array([100.0]))[0] == pytest.approx(10.0)
        assert q_error(np.array([100.0]), np.array([10.0]))[0] == pytest.approx(10.0)

    def test_log_latency_roundtrip(self):
        assert from_log_latency(log_latency(123.0)) == pytest.approx(123.0)

    def test_mse_validation(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_replay_buffer_capacity(self):
        buffer = ReplayBuffer(capacity=5)
        for i in range(8):
            buffer.add(Experience(query_id=f"q{i}", features=np.zeros(2), latency_ms=float(i + 1)))
        assert len(buffer) == 5
        assert [e.query_id for e in buffer][0] == "q3"

    def test_training_matrix_recent_only(self):
        buffer = ReplayBuffer()
        buffer.add(Experience("a", np.array([1.0]), 10.0, iteration=0))
        buffer.add(Experience("b", np.array([2.0]), 20.0, iteration=1))
        features, targets = buffer.training_matrix(recent_only=True)
        assert features.shape == (1, 1)
        assert targets[0] == pytest.approx(np.log(20.0))
        features_all, _ = buffer.training_matrix(recent_only=False)
        assert features_all.shape == (2, 1)

    def test_per_query_best_ignores_timeouts(self):
        buffer = ReplayBuffer()
        buffer.add(Experience("a", np.zeros(1), 5.0))
        buffer.add(Experience("a", np.zeros(1), 2.0))
        buffer.add(Experience("a", np.zeros(1), 1.0, timed_out=True))
        assert buffer.per_query_best() == {"a": 2.0}
