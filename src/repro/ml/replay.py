"""Experience replay buffers for the RL-flavoured learned optimizers.

Neo samples training batches from its entire replay buffer, while Balsa trains
only on data produced by the most recent model state (Section 2 of the
paper).  :class:`ReplayBuffer` supports both regimes via ``recent_only``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.ml.nn import MLPRegressor


@dataclass
class Experience:
    """One executed plan: its features, measured latency and provenance."""

    query_id: str
    features: np.ndarray
    latency_ms: float
    iteration: int = 0
    timed_out: bool = False
    metadata: dict = field(default_factory=dict)


class ReplayBuffer:
    """A bounded buffer of :class:`Experience` records."""

    def __init__(self, capacity: int = 50_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Experience] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Experience]:
        return iter(self._items)

    def add(self, experience: Experience) -> None:
        self._items.append(experience)
        if len(self._items) > self.capacity:
            # Drop the oldest entries first.
            overflow = len(self._items) - self.capacity
            self._items = self._items[overflow:]

    def clear(self) -> None:
        self._items.clear()

    def latest_iteration(self) -> int:
        return max((e.iteration for e in self._items), default=0)

    def training_matrix(self, recent_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Stack experiences into (features, log-latency targets) arrays.

        ``recent_only`` restricts to the latest iteration (Balsa-style
        on-policy training); otherwise the full buffer is used (Neo-style).
        """
        items = self._items
        if recent_only and items:
            last = self.latest_iteration()
            items = [e for e in items if e.iteration == last]
        if not items:
            return np.empty((0, 0)), np.empty(0)
        features = np.vstack([e.features for e in items])
        latencies = np.asarray([max(e.latency_ms, 0.01) for e in items], dtype=float)
        return features, np.log(latencies)

    def refit(
        self, model: MLPRegressor, seed: int, fit_seed: int, epochs: int, recent_only: bool = False
    ) -> MLPRegressor:
        """The one retrain rule of the regression-based optimizers.

        A fresh :class:`MLPRegressor` of ``model``'s input size (seeded
        ``seed``) fit on :meth:`training_matrix` for ``epochs`` epochs
        (seeded ``fit_seed``); ``model`` itself while the buffer holds fewer
        than 8 rows.
        """
        features, targets = self.training_matrix(recent_only)
        if len(targets) < 8:
            return model
        fresh = MLPRegressor(input_size=model.input_size, seed=seed)
        fresh.fit(features, targets, epochs=epochs, seed=fit_seed)
        return fresh

    def per_query_best(self) -> dict[str, float]:
        """Best (lowest) observed latency per query id — used for Balsa's timeouts."""
        best: dict[str, float] = {}
        for experience in self._items:
            if experience.timed_out:
                continue
            current = best.get(experience.query_id)
            if current is None or experience.latency_ms < current:
                best[experience.query_id] = experience.latency_ms
        return best
