"""Conversion of executor work profiles into simulated latencies.

The timing model is the substitution for wall-clock ``EXPLAIN ANALYZE``
measurements on a real PostgreSQL server (see docs/ARCHITECTURE.md,
"Determinism").  Latency is a deterministic function of the work an operator
performed — buffer-pool hits, sequential and random page reads, per-tuple CPU,
sorting and spilling — plus a small seeded measurement noise.  Because page
*misses* are much more expensive than hits, repeated executions of the same
query converge from a cold-cache latency to a stable hot-cache latency,
reproducing the behaviour the paper studies in Sections 7.3 and 8.6 (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PostgresConfig
from repro.executor.operators import OperatorMetrics

#: Cost constants in milliseconds per unit of work.  Page "misses" model a
#: read that falls through to the OS page cache / fast SSD, which is why the
#: cold-vs-hot gap is moderate (Section 8.6 reports a ~15% mean reduction
#: between the first and second execution on real hardware).
MS_PER_PAGE_HIT = 0.0035
MS_PER_SEQ_PAGE_READ = 0.009
MS_PER_RANDOM_PAGE_READ = 0.016
MS_PER_INDEX_PAGE = 0.004
MS_PER_TUPLE = 0.0008
MS_PER_CPU_OP = 0.00025
MS_PER_SORT_ROW = 0.0009
MS_PER_SPILLED_KB = 0.02
#: Fixed per-query executor startup/shutdown overhead.
MS_EXECUTOR_OVERHEAD = 0.35


@dataclass
class TimingBreakdown:
    """Decomposition of a simulated execution latency (milliseconds)."""

    io_hit_ms: float = 0.0
    io_seq_ms: float = 0.0
    io_random_ms: float = 0.0
    index_ms: float = 0.0
    cpu_ms: float = 0.0
    sort_ms: float = 0.0
    spill_ms: float = 0.0
    overhead_ms: float = MS_EXECUTOR_OVERHEAD
    noise_factor: float = 1.0

    @property
    def io_ms(self) -> float:
        """Combined I/O time: buffer hits, sequential/random reads, index pages."""
        return self.io_hit_ms + self.io_seq_ms + self.io_random_ms + self.index_ms

    @property
    def total_ms(self) -> float:
        """Total latency: all components summed, scaled by the noise factor."""
        base = (
            self.io_hit_ms
            + self.io_seq_ms
            + self.io_random_ms
            + self.index_ms
            + self.cpu_ms
            + self.sort_ms
            + self.spill_ms
            + self.overhead_ms
        )
        return base * self.noise_factor


class TimingModel:
    """Maps :class:`OperatorMetrics` to simulated milliseconds."""

    def __init__(
        self,
        config: PostgresConfig,
        noise_sigma: float = 0.02,
        seed: int = 2024,
    ) -> None:
        self.config = config
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)
        self._parallel_factor = self._compute_parallel_factor(config)

    @staticmethod
    def _compute_parallel_factor(config: PostgresConfig) -> float:
        """Speed-up factor applied to scan-heavy work from parallel workers.

        Following Amdahl-style scaling with diminishing returns; with
        parallelism disabled (``max_parallel_workers_per_gather = 0``) the
        factor is 1.
        """
        workers = min(config.max_parallel_workers, config.max_parallel_workers_per_gather)
        workers = max(int(workers), 0)
        if workers <= 1:
            return 1.0
        return 1.0 + 0.55 * (min(workers, 8) - 1)

    def reseed(self, seed: int) -> None:
        """Reset the measurement-noise stream (used by the execution protocol)."""
        self._rng = np.random.default_rng(seed)

    def breakdown(self, metrics: OperatorMetrics, with_noise: bool = True) -> TimingBreakdown:
        """Convert a work profile into a latency breakdown."""
        io_hit = metrics.pages_hit * MS_PER_PAGE_HIT
        io_seq = metrics.seq_pages_read * MS_PER_SEQ_PAGE_READ
        io_random = metrics.random_pages_read * MS_PER_RANDOM_PAGE_READ
        index_ms = metrics.index_pages * MS_PER_INDEX_PAGE
        cpu = metrics.tuples_in * MS_PER_TUPLE + metrics.cpu_ops * MS_PER_CPU_OP
        sort = metrics.sort_rows * MS_PER_SORT_ROW
        if metrics.sort_rows:
            sort += metrics.sort_rows * MS_PER_SORT_ROW * float(
                np.log2(max(metrics.sort_rows, 2))
            ) * 0.08
        spill = (metrics.spill_bytes / 1024.0) * MS_PER_SPILLED_KB

        factor = self._parallel_factor
        io_hit /= factor
        io_seq /= factor
        cpu /= factor

        noise = 1.0
        if with_noise and self.noise_sigma > 0:
            noise = float(np.exp(self._rng.normal(0.0, self.noise_sigma)))

        return TimingBreakdown(
            io_hit_ms=io_hit,
            io_seq_ms=io_seq,
            io_random_ms=io_random,
            index_ms=index_ms,
            cpu_ms=cpu,
            sort_ms=sort,
            spill_ms=spill,
            noise_factor=noise,
        )

    def execution_time_ms(self, metrics: OperatorMetrics, with_noise: bool = True) -> float:
        """Total simulated execution time for a work profile."""
        return self.breakdown(metrics, with_noise=with_noise).total_ms
