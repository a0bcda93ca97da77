"""Pure-numpy neural networks: an MLP regressor and a pairwise ranker.

Both models share the same fully-connected backbone with ReLU activations,
inverted dropout, Adam updates and early stopping on a fixed validation split
— the training hygiene Section 5.1 of the paper recommends (fixed holdout
rather than rolling/cross-validated model selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError, NotTrainedError


@dataclass
class TrainingHistory:
    """Per-epoch training/validation losses plus early-stopping metadata."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


class _MLPCore:
    """Shared fully-connected backbone with manual backprop and Adam."""

    def __init__(
        self,
        input_size: int,
        hidden_sizes: tuple[int, ...],
        output_size: int,
        seed: int,
        dropout: float,
        learning_rate: float,
        weight_decay: float,
    ) -> None:
        if input_size <= 0:
            raise ModelError("input size must be positive")
        self.input_size = input_size
        self.hidden_sizes = tuple(hidden_sizes)
        self.output_size = output_size
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        rng = np.random.default_rng(seed)
        sizes = [input_size, *hidden_sizes, output_size]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float64))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))
        # Adam state.
        self._m_w = [np.zeros_like(w) for w in self.weights]
        self._v_w = [np.zeros_like(w) for w in self.weights]
        self._m_b = [np.zeros_like(b) for b in self.biases]
        self._v_b = [np.zeros_like(b) for b in self.biases]
        self._adam_t = 0
        self._rng = rng

    # -- forward / backward -------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False):
        """Forward pass; returns (output, cache) where cache feeds backward()."""
        activations = [x]
        masks = []
        h = x
        n_layers = len(self.weights)
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            if layer < n_layers - 1:
                h = np.maximum(z, 0.0)
                if training and self.dropout > 0.0:
                    mask = (self._rng.random(h.shape) >= self.dropout) / (1.0 - self.dropout)
                    h = h * mask
                else:
                    mask = None
                masks.append(mask)
            else:
                h = z
            activations.append(h)
        return h, (activations, masks)

    def backward(self, cache, grad_output: np.ndarray) -> None:
        """Backprop ``grad_output`` (dL/d output) and apply one Adam step."""
        activations, masks = cache
        grads_w = [np.zeros_like(w) for w in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        grad = grad_output
        n_layers = len(self.weights)
        for layer in reversed(range(n_layers)):
            h_prev = activations[layer]
            grads_w[layer] = h_prev.T @ grad + self.weight_decay * self.weights[layer]
            grads_b[layer] = grad.sum(axis=0)
            if layer > 0:
                grad = grad @ self.weights[layer].T
                mask = masks[layer - 1]
                if mask is not None:
                    grad = grad * mask
                grad = grad * (activations[layer] > 0.0)
        self._adam_step(grads_w, grads_b)

    def _adam_step(self, grads_w, grads_b, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self._adam_t += 1
        lr_t = self.learning_rate * np.sqrt(1 - beta2**self._adam_t) / (1 - beta1**self._adam_t)
        for i in range(len(self.weights)):
            self._m_w[i] = beta1 * self._m_w[i] + (1 - beta1) * grads_w[i]
            self._v_w[i] = beta2 * self._v_w[i] + (1 - beta2) * grads_w[i] ** 2
            self.weights[i] -= lr_t * self._m_w[i] / (np.sqrt(self._v_w[i]) + eps)
            self._m_b[i] = beta1 * self._m_b[i] + (1 - beta1) * grads_b[i]
            self._v_b[i] = beta2 * self._v_b[i] + (1 - beta2) * grads_b[i] ** 2
            self.biases[i] -= lr_t * self._m_b[i] / (np.sqrt(self._v_b[i]) + eps)

    def snapshot(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def restore(self, snapshot: list[np.ndarray]) -> None:
        n = len(self.weights)
        for i in range(n):
            self.weights[i] = snapshot[i].copy()
            self.biases[i] = snapshot[n + i].copy()


class MLPRegressor:
    """An MLP trained with MSE on (feature, target) pairs.

    Targets are typically log latencies; :meth:`predict` returns the raw model
    output (callers decide whether to exponentiate).
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: tuple[int, ...] = (64, 32),
        seed: int = 0,
        dropout: float = 0.1,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
    ) -> None:
        self._core = _MLPCore(
            input_size, hidden_sizes, 1, seed, dropout, learning_rate, weight_decay
        )
        self._trained = False
        self.history = TrainingHistory()

    @property
    def input_size(self) -> int:
        return self._core.input_size

    @property
    def is_trained(self) -> bool:
        return self._trained

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        epochs: int = 60,
        batch_size: int = 32,
        validation_fraction: float = 0.2,
        patience: int = 8,
        seed: int = 0,
    ) -> TrainingHistory:
        """Train with mini-batch Adam, early-stopping on a fixed validation split."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        if features.ndim != 2 or features.shape[0] != targets.shape[0]:
            raise ModelError("features and targets have incompatible shapes")
        n = features.shape[0]
        if n == 0:
            raise ModelError("cannot train on an empty dataset")

        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_val = max(1, int(n * validation_fraction)) if n >= 5 else 0
        val_idx = order[:n_val]
        train_idx = order[n_val:] if n_val else order
        x_train, y_train = features[train_idx], targets[train_idx]
        x_val, y_val = features[val_idx], targets[val_idx]

        history = TrainingHistory()
        best_val = np.inf
        best_snapshot = self._core.snapshot()
        bad_epochs = 0

        for epoch in range(epochs):
            perm = rng.permutation(len(x_train))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(x_train), batch_size):
                idx = perm[start:start + batch_size]
                xb, yb = x_train[idx], y_train[idx]
                pred, cache = self._core.forward(xb, training=True)
                diff = pred - yb
                loss = float(np.mean(diff**2))
                grad = (2.0 / len(xb)) * diff
                self._core.backward(cache, grad)
                epoch_loss += loss
                batches += 1
            history.train_losses.append(epoch_loss / max(batches, 1))

            if n_val:
                val_pred, _ = self._core.forward(x_val, training=False)
                val_loss = float(np.mean((val_pred - y_val) ** 2))
            else:
                val_loss = history.train_losses[-1]
            history.validation_losses.append(val_loss)

            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_snapshot = self._core.snapshot()
                history.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= patience:
                    history.stopped_early = True
                    break

        self._core.restore(best_snapshot)
        self._trained = True
        self.history = history
        return history

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self._trained:
            raise NotTrainedError("MLPRegressor.predict called before fit")
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        out, _ = self._core.forward(features, training=False)
        out = out.reshape(-1)
        return out[0:1] if single else out

    def predict_one(self, features: np.ndarray) -> float:
        return float(self.predict(np.asarray(features).reshape(1, -1))[0])


class PairwiseRanker:
    """A learning-to-rank model: scores plans, trained on ordered pairs.

    Given pairs ``(better, worse)`` the model is trained with a logistic
    pairwise loss so that ``score(better) < score(worse)`` (lower is better,
    consistent with latency).  Used by LEON, the one LTR method run here.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: tuple[int, ...] = (64, 32),
        seed: int = 0,
        dropout: float = 0.1,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
    ) -> None:
        self._core = _MLPCore(
            input_size, hidden_sizes, 1, seed, dropout, learning_rate, weight_decay
        )
        self._trained = False
        self.history = TrainingHistory()

    @property
    def is_trained(self) -> bool:
        return self._trained

    def fit_pairs(
        self,
        better: np.ndarray,
        worse: np.ndarray,
        epochs: int = 60,
        batch_size: int = 32,
        validation_fraction: float = 0.2,
        patience: int = 8,
        seed: int = 0,
    ) -> TrainingHistory:
        """Train on aligned arrays of (better, worse) feature rows."""
        better = np.asarray(better, dtype=np.float64)
        worse = np.asarray(worse, dtype=np.float64)
        if better.shape != worse.shape or better.ndim != 2:
            raise ModelError("better/worse feature matrices must have identical 2-D shapes")
        n = better.shape[0]
        if n == 0:
            raise ModelError("cannot train a ranker on zero pairs")
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        n_val = max(1, int(n * validation_fraction)) if n >= 5 else 0
        val_idx, train_idx = order[:n_val], order[n_val:] if n_val else order

        history = TrainingHistory()
        best_val = np.inf
        best_snapshot = self._core.snapshot()
        bad_epochs = 0

        def pair_loss_and_grad(b_rows, w_rows, training):
            scores_b, cache_b = self._core.forward(b_rows, training=training)
            scores_w, cache_w = self._core.forward(w_rows, training=training)
            margin = scores_b - scores_w  # want negative
            loss = float(np.mean(np.log1p(np.exp(margin))))
            sigma = 1.0 / (1.0 + np.exp(-margin))
            grad = sigma / len(b_rows)
            return loss, (cache_b, grad), (cache_w, -grad)

        for epoch in range(epochs):
            perm = rng.permutation(len(train_idx))
            epoch_loss, batches = 0.0, 0
            for start in range(0, len(train_idx), batch_size):
                idx = train_idx[perm[start:start + batch_size]]
                loss, (cache_b, grad_b), (cache_w, grad_w) = pair_loss_and_grad(
                    better[idx], worse[idx], training=True
                )
                self._core.backward(cache_b, grad_b)
                self._core.backward(cache_w, grad_w)
                epoch_loss += loss
                batches += 1
            history.train_losses.append(epoch_loss / max(batches, 1))

            if n_val:
                val_loss, _, _ = pair_loss_and_grad(better[val_idx], worse[val_idx], False)
            else:
                val_loss = history.train_losses[-1]
            history.validation_losses.append(val_loss)

            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_snapshot = self._core.snapshot()
                history.best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= patience:
                    history.stopped_early = True
                    break

        self._core.restore(best_snapshot)
        self._trained = True
        self.history = history
        return history

    def score(self, features: np.ndarray) -> np.ndarray:
        """Lower scores mean "predicted faster"."""
        if not self._trained:
            raise NotTrainedError("PairwiseRanker.score called before fit_pairs")
        features = np.asarray(features, dtype=np.float64)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        out, _ = self._core.forward(features, training=False)
        out = out.reshape(-1)
        return out[0:1] if single else out

    def prefer(self, features_a: np.ndarray, features_b: np.ndarray) -> bool:
        """True when plan A is predicted to be faster than plan B."""
        return float(self.score(features_a)[0]) <= float(self.score(features_b)[0])
