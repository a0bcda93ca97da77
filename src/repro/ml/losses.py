"""Metrics for judging a trained model's predictions (the models' training
losses live with their fit methods in :mod:`repro.ml.nn`)."""

from __future__ import annotations

import numpy as np


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if predictions.size != targets.size:
        raise ValueError("predictions and targets must have the same length")
    if predictions.size == 0:
        return 0.0
    return float(np.mean((predictions - targets) ** 2))


def q_error(predicted: np.ndarray, actual: np.ndarray, epsilon: float = 1e-9) -> np.ndarray:
    """Per-sample Q-error ``max(pred/actual, actual/pred)`` (cardinality/latency metric)."""
    predicted = np.maximum(np.asarray(predicted, dtype=float).reshape(-1), epsilon)
    actual = np.maximum(np.asarray(actual, dtype=float).reshape(-1), epsilon)
    if predicted.size != actual.size:
        raise ValueError("predicted and actual must have the same length")
    return np.maximum(predicted / actual, actual / predicted)


def pairwise_accuracy(scores_better: np.ndarray, scores_worse: np.ndarray) -> float:
    """Fraction of pairs ranked correctly (better scored lower than worse)."""
    scores_better = np.asarray(scores_better, dtype=float).reshape(-1)
    scores_worse = np.asarray(scores_worse, dtype=float).reshape(-1)
    if scores_better.size != scores_worse.size:
        raise ValueError("score arrays must have the same length")
    if scores_better.size == 0:
        return 0.0
    return float(np.mean(scores_better < scores_worse))

