"""Tests for the numpy ML substrate: MLP, pairwise ranker, tree encoders, replay."""

import numpy as np
import pytest

from repro.encoding.plan_encoding import PlanTreeEncoder
from repro.errors import ModelError, NotTrainedError
from repro.ml.nn import MLPRegressor, PairwiseRanker, _MLPCore
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
        assert np.mean((preds - y[:50]) ** 2) < np.var(y) * 0.2

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

    def test_one_row_predicts_like_a_one_row_matrix(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 5))
        model = MLPRegressor(input_size=5, seed=4, dropout=0.0)
        model.fit(x, x.sum(axis=1), epochs=40)
        assert model.predict(x[0]).tobytes() == model.predict(x[:1]).tobytes()
        assert model.predict(x[0]).shape == (1,)


class TestPairwiseRanker:
    def test_learns_to_rank_by_norm(self):
        rng = np.random.default_rng(5)
        fast = rng.normal(loc=0.0, size=(300, 6))
        slow = rng.normal(loc=1.5, size=(300, 6))
        ranker = PairwiseRanker(input_size=6, seed=6, dropout=0.0)
        ranker.fit_pairs(fast, slow, epochs=80)
        assert np.mean(ranker.score(fast[:100]) < ranker.score(slow[:100])) > 0.85

    def test_score_and_predict_share_one_inference_path(self):
        rng = np.random.default_rng(7)
        fast = rng.normal(loc=0.0, size=(40, 4))
        slow = rng.normal(loc=2.0, size=(40, 4))
        ranker = PairwiseRanker(input_size=4, seed=8, dropout=0.0)
        ranker.fit_pairs(fast, slow, epochs=5)
        regressor = MLPRegressor(input_size=4, seed=8, dropout=0.0)
        regressor.fit(fast, np.zeros(40), epochs=5)
        regressor._core = ranker._core
        assert regressor.predict(fast).tobytes() == ranker.score(fast).tobytes()

    def test_score_before_training_raises(self):
        ranker = PairwiseRanker(input_size=4)
        with pytest.raises(NotTrainedError):
            ranker.score(np.zeros(4))

    def test_mismatched_pair_shapes_raise(self):
        ranker = PairwiseRanker(input_size=4)
        with pytest.raises(ModelError):
            ranker.fit_pairs(np.zeros((3, 4)), np.zeros((4, 4)))


def _fit(kind, n, seed=0, signal=True, learning_rate=1e-3, **policy):
    """Fit a small model of ``kind`` on ``n`` rows (``signal=False``: targets
    are noise); returns the model, its history, its outputs on the rows and
    its own loss of given rows under the fitted weights."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    if kind == "regressor":
        y = x.sum(axis=1) if signal else rng.normal(size=n)
        model = MLPRegressor(input_size=4, hidden_sizes=(16,), seed=seed, learning_rate=learning_rate)
        history = model.fit(x, y, seed=seed, **policy)

        def loss(rows):
            return float(np.mean((model.predict(x[rows]) - y[rows]) ** 2))

        return model, history, model.predict(x), loss
    worse = x + 1.0 if signal else rng.normal(size=(n, 4))
    model = PairwiseRanker(input_size=4, hidden_sizes=(16,), seed=seed, learning_rate=learning_rate)
    history = model.fit_pairs(x, worse, seed=seed, **policy)

    def loss(rows):
        return float(np.mean(np.log1p(np.exp(model.score(x[rows]) - model.score(worse[rows])))))

    return model, history, model.score(x), loss


@pytest.mark.parametrize("kind", ["regressor", "ranker"])
class TestTrainingPolicy:
    """The one policy of ``_MLPCore.train``, checked through both models."""

    @staticmethod
    def _forward_rows(monkeypatch):
        seen = []
        forward = _MLPCore.forward

        def spy(self, x, training=False):
            seen.append((len(x), training))
            return forward(self, x, training)

        monkeypatch.setattr(_MLPCore, "forward", spy)
        return seen

    def test_fixed_holdout_of_the_validation_fraction(self, kind, monkeypatch):
        seen = self._forward_rows(monkeypatch)
        _fit(kind, 50, epochs=3, batch_size=64, validation_fraction=0.2)
        per_pass = 1 if kind == "regressor" else 2
        # Each epoch: one batch of the 40 training rows, then the 10 held out.
        assert seen[: 6 * per_pass] == ([(40, True)] * per_pass + [(10, False)] * per_pass) * 3

    def test_under_five_rows_validates_on_the_training_loss(self, kind, monkeypatch):
        seen = self._forward_rows(monkeypatch)
        _, history, _, _ = _fit(kind, 4, epochs=6, batch_size=2)
        assert history.validation_losses == history.train_losses
        assert len(history.train_losses) >= 1
        assert all(training for _, training in seen[: 2 * len(history.train_losses)])
        assert {rows for rows, _ in seen[: 2 * len(history.train_losses)]} == {2}

    def test_stops_after_patience_epochs_without_improvement(self, kind):
        # No learning: the first epoch's validation loss is never beaten.
        _, history, _, _ = _fit(kind, 40, learning_rate=0.0, epochs=50, patience=4)
        assert history.best_epoch == 0
        assert history.epochs_run == 5
        assert history.stopped_early
        assert len(set(history.validation_losses)) == 1

    def test_restores_the_best_epochs_weights(self, kind):
        n, seed = 60, 2
        _, history, _, loss = _fit(kind, n, seed=seed, signal=False, learning_rate=3e-2, epochs=60, patience=6)
        assert history.best_epoch < history.epochs_run - 1  # a later epoch was worse
        holdout = np.random.default_rng(seed).permutation(n)[: int(n * 0.2)]
        assert loss(holdout) == pytest.approx(history.validation_losses[history.best_epoch], rel=1e-12)
        assert history.validation_losses[history.best_epoch] == min(history.validation_losses)

    def test_equal_seeds_give_equal_histories_and_outputs(self, kind):
        _, first, outputs, _ = _fit(kind, 30, seed=5, epochs=12)
        _, second, again, _ = _fit(kind, 30, seed=5, epochs=12)
        assert first == second
        assert outputs.tobytes() == again.tobytes()
        _, other, _, _ = _fit(kind, 30, seed=6, epochs=12)
        assert other != first


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
    def test_replay_buffer_capacity(self):
        buffer = ReplayBuffer(capacity=5)
        for i in range(8):
            buffer.add(Experience(query_id=f"q{i}", features=np.zeros(2), latency_ms=float(i + 1)))
        assert len(buffer) == 5
        assert [e.query_id for e in buffer][0] == "q3"

    def test_latest_iteration_survives_eviction(self):
        buffer = ReplayBuffer(capacity=3)
        assert buffer.latest_iteration() == 0
        for iteration in (2, 5, 1):
            buffer.add(Experience(f"q{iteration}", np.zeros(1), 1.0, iteration=iteration))
        # The newest experience need not carry the highest iteration.
        assert buffer.latest_iteration() == 5
        buffer.add(Experience("q0", np.zeros(1), 1.0, iteration=0))
        buffer.add(Experience("q3", np.zeros(1), 1.0, iteration=3))
        # Iterations 2 and 5 were evicted, oldest first.
        assert buffer.latest_iteration() == 3

    def test_training_matrix_recent_only(self):
        buffer = ReplayBuffer()
        buffer.add(Experience("a", np.array([1.0]), 10.0, iteration=0))
        buffer.add(Experience("b", np.array([2.0]), 20.0, iteration=1))
        features, targets = buffer.training_matrix(recent_only=True)
        assert features.shape == (1, 1)
        assert targets[0] == pytest.approx(np.log(20.0))
        features_all, _ = buffer.training_matrix(recent_only=False)
        assert features_all.shape == (2, 1)

    def test_refit_keeps_the_model_under_eight_rows(self):
        buffer = ReplayBuffer()
        for i in range(7):
            buffer.add(Experience(f"q{i}", np.full(3, float(i)), 10.0 + i))
        model = MLPRegressor(input_size=3)
        assert buffer.refit(model, seed=1, fit_seed=2, epochs=5) is model

    def test_refit_fits_a_fresh_regressor_on_the_buffer(self):
        buffer = ReplayBuffer()
        rng = np.random.default_rng(0)
        for i in range(20):
            buffer.add(Experience(f"q{i}", rng.normal(size=3), 10.0 + i, iteration=i % 2))
        model = MLPRegressor(input_size=3)
        fresh = buffer.refit(model, seed=1, fit_seed=2, epochs=5, recent_only=True)
        assert fresh is not model and fresh.is_trained and fresh.input_size == 3
        features, targets = buffer.training_matrix(recent_only=True)
        expected = MLPRegressor(input_size=3, seed=1)
        expected.fit(features, targets, epochs=5, seed=2)
        assert fresh.history == expected.history
        assert fresh.predict(features).tobytes() == expected.predict(features).tobytes()

