"""The simulated clock: every millisecond a result reports is minted here.

The paper decomposes a query's end-to-end latency into the optimizer's
inference, the DBMS's planning and the plan's execution (Section 8.2.1), and
reports training time beside it (Figure 6).  The reproduction measures none
of these with a host clock: each is a deterministic function of the work
done, so results are byte-identical across runs, engines, worker counts and
transports.  This module holds the one constants table and every function
that turns work into simulated time:

* :class:`TimingModel` — execution, from an operator work profile (buffer
  hits, page reads, tuples, sorting, spilling) plus seeded noise.  Page
  misses cost more than hits, so repeated runs converge from a cold to a hot
  latency (Sections 7.3 and 8.6, Figure 7).
* :func:`run_charge_ms` — what a run is charged under a timeout, and what an
  aborted run costs.
* :func:`planning_ms` — the native planner, by enumeration strategy.
* :func:`hinted_planning_ms` — the DBMS completing a fully hinted plan.
* :func:`inference_ms` and :func:`training_s` — a learned optimizer's time.

Intended proportions.  On JOB, execution should be the largest share of a
native query's end-to-end time and planning a minor one; a learned
optimizer's inference should be of the order of the planning it replaces,
dominating only where the method spends it.  The constants below do not yet
give that: under ``SIMULATION_CONFIG`` the cache is far below
:data:`SMALL_CACHE_BYTES`, so every query over
:data:`SMALL_CACHE_FREE_RELATIONS` relations pays
:data:`SMALL_CACHE_MS_PER_RELATION` per extra relation — the planning-time
outlier the paper removed by raising ``effective_cache_size`` (Section 7.1).
On a 9-query JOB split at scale 0.25 the native cell is charged 1,706 ms of
planning against 7.8 ms of execution.  Charging planning and inference from
counted work, and calibrating the table, changes every recorded golden; the
formulas here are pinned byte for byte until then.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.config import GB, PostgresConfig

if TYPE_CHECKING:
    from repro.executor.operators import OperatorMetrics
    from repro.sql.binder import BoundQuery

#: The planner's enumeration strategies (``PlannerResult.strategy``).
STRATEGY_DP = "dynamic-programming"
STRATEGY_GEQO = "geqo"
STRATEGY_GREEDY = "greedy"
STRATEGY_FORCED = "forced-order"
STRATEGY_COLLAPSED = "from-order"

# ---------------------------------------------------------------------------
# The constants table.
# ---------------------------------------------------------------------------

# Execution, in milliseconds per unit of work.  Page "misses" model a read
# that falls through to the OS page cache / fast SSD, which is why the
# cold-vs-hot gap is moderate (Section 8.6 reports a ~15% mean reduction
# between the first and second execution on real hardware).
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
#: Log-linear share of a sort: ``rows * MS_PER_SORT_ROW * log2(rows) * this``.
SORT_LOG_FACTOR = 0.08
#: Parallel workers speed scan-heavy work up by this much per worker beyond
#: the first, for at most ``PARALLEL_MAX_WORKERS`` workers.
PARALLEL_GAIN_PER_WORKER = 0.55
PARALLEL_MAX_WORKERS = 8
#: Default spread of the log-normal measurement noise, and its seed.
NOISE_SIGMA = 0.02
NOISE_SEED = 2024

#: The statement timeout of the experiments (an evaluation run slower than
#: this is charged this and counted as timed out), and what an aborted run —
#: a plan the executor refused to expand — costs when no timeout is set.
TIMEOUT_MS = 60_000.0

# Native planning: a base, per relation and per filter, plus the strategy's
# enumeration term.
PLANNING_BASE_MS = 0.4
PLANNING_MS_PER_RELATION = 0.12
PLANNING_MS_PER_FILTER = 0.02
#: Dynamic programming: ``this * 2**min(n, DP_SUBSET_EXPONENT_CAP) / 100 * n``.
DP_MS_PER_HUNDRED_SUBSETS = 0.015
DP_SUBSET_EXPONENT_CAP = 12
#: Every other strategy: milliseconds per relation.
ENUMERATION_MS_PER_RELATION = {
    STRATEGY_GEQO: 0.35,
    STRATEGY_GREEDY: 0.05,
    STRATEGY_COLLAPSED: 0.05,
    STRATEGY_FORCED: 0.03,
}
#: Below this ``effective_cache_size`` a query over more than
#: ``SMALL_CACHE_FREE_RELATIONS`` relations pays ``SMALL_CACHE_MS_PER_RELATION``
#: per extra relation: the outlier of Section 7.1.
SMALL_CACHE_BYTES = 16 * GB
SMALL_CACHE_FREE_RELATIONS = 9
SMALL_CACHE_MS_PER_RELATION = 120.0

# The DBMS completing a fully hinted plan (Neo, Balsa, LEON hand one over).
HINTED_PLANNING_BASE_MS = 0.4
HINTED_PLANNING_MS_PER_RELATION = 0.03
HINTED_PLANNING_MS_PER_FILTER = 0.02

# A learned optimizer's inference: featurizing the query and scoring
# candidates grows with its size; each method is scaled by a factor in
# [1, 2] digested from its name, so the decomposition plots keep distinct
# per-method inference bands.
INFERENCE_BASE_MS = 0.6
INFERENCE_MS_PER_RELATION = 0.15
INFERENCE_MS_PER_FILTER = 0.05

# Training (Figure 6), in seconds: per plan executed, per training query and
# per iteration.
TRAINING_S_PER_EXECUTED_PLAN = 0.002
TRAINING_S_PER_QUERY = 0.0005
TRAINING_S_PER_ITERATION = 0.001


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


class TimingModel:
    """Maps :class:`~repro.executor.operators.OperatorMetrics` to simulated milliseconds."""

    def __init__(
        self,
        config: PostgresConfig,
        noise_sigma: float = NOISE_SIGMA,
        seed: int = NOISE_SEED,
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
        return 1.0 + PARALLEL_GAIN_PER_WORKER * (min(workers, PARALLEL_MAX_WORKERS) - 1)

    def reseed(self, seed: int) -> None:
        """Reset the measurement-noise stream (used by the execution protocol)."""
        self._rng = np.random.default_rng(seed)

    def execution_time_ms(self, metrics: OperatorMetrics, with_noise: bool = True) -> float:
        """Simulated execution time of a work profile; draws one noise sample."""
        io_hit = metrics.pages_hit * MS_PER_PAGE_HIT
        io_seq = metrics.seq_pages_read * MS_PER_SEQ_PAGE_READ
        io_random = metrics.random_pages_read * MS_PER_RANDOM_PAGE_READ
        index_ms = metrics.index_pages * MS_PER_INDEX_PAGE
        cpu = metrics.tuples_in * MS_PER_TUPLE + metrics.cpu_ops * MS_PER_CPU_OP
        sort = metrics.sort_rows * MS_PER_SORT_ROW
        if metrics.sort_rows:
            sort += metrics.sort_rows * MS_PER_SORT_ROW * float(
                np.log2(max(metrics.sort_rows, 2))
            ) * SORT_LOG_FACTOR
        spill = (metrics.spill_bytes / 1024.0) * MS_PER_SPILLED_KB

        factor = self._parallel_factor
        io_hit /= factor
        io_seq /= factor
        cpu /= factor

        noise = 1.0
        if with_noise and self.noise_sigma > 0:
            noise = float(np.exp(self._rng.normal(0.0, self.noise_sigma)))
        base = io_hit + io_seq + io_random + index_ms + cpu + sort + spill + MS_EXECUTOR_OVERHEAD
        return base * noise


def run_charge_ms(elapsed_ms: float | None, timeout_ms: float | None) -> tuple[float, bool]:
    """What one run is charged, and whether it counts as timed out.

    ``elapsed_ms`` is ``None`` for an aborted run: it is charged the timeout,
    or :data:`TIMEOUT_MS` without one.  A finished run slower than a positive
    timeout is charged the timeout.
    """
    if timeout_ms is None or timeout_ms <= 0:
        return (TIMEOUT_MS, True) if elapsed_ms is None else (elapsed_ms, False)
    if elapsed_ms is None or elapsed_ms > timeout_ms:
        return float(timeout_ms), True
    return elapsed_ms, False


# ---------------------------------------------------------------------------
# Planning, inference and training.
# ---------------------------------------------------------------------------


def planning_ms(query: BoundQuery, strategy: str, config: PostgresConfig) -> float:
    """The native planner's time for ``query`` under one enumeration strategy.

    It grows with the number of relations; dynamic programming grows faster
    than GEQO, which exists to bound planning time.
    """
    n = query.num_relations
    ms = PLANNING_BASE_MS + PLANNING_MS_PER_RELATION * n + PLANNING_MS_PER_FILTER * len(query.filters)
    if strategy == STRATEGY_DP:
        ms += DP_MS_PER_HUNDRED_SUBSETS * (2 ** min(n, DP_SUBSET_EXPONENT_CAP)) / 100.0 * n
    elif strategy in ENUMERATION_MS_PER_RELATION:
        ms += ENUMERATION_MS_PER_RELATION[strategy] * n
    if config.effective_cache_size < SMALL_CACHE_BYTES and n > SMALL_CACHE_FREE_RELATIONS:
        ms += SMALL_CACHE_MS_PER_RELATION * (n - SMALL_CACHE_FREE_RELATIONS)
    return ms


def hinted_planning_ms(query: BoundQuery) -> float:
    """The DBMS's planning time when a learned optimizer hands it a fully hinted plan."""
    return (
        HINTED_PLANNING_BASE_MS
        + HINTED_PLANNING_MS_PER_RELATION * query.num_relations
        + HINTED_PLANNING_MS_PER_FILTER * len(query.filters)
    )


def _method_factor(method: str) -> float:
    """``1 + d/255`` for the name's 8-bit digest ``d`` (``stable_seed(method, bits=8)``)."""
    digest = hashlib.sha256(method.encode("utf-8")).digest()
    return 1.0 + (int.from_bytes(digest[:8], "big") % 2**8) / 255.0


def inference_ms(query: BoundQuery, method: str) -> float:
    """A learned optimizer's inference time for ``query``."""
    return _method_factor(method) * (
        INFERENCE_BASE_MS
        + INFERENCE_MS_PER_RELATION * query.num_relations
        + INFERENCE_MS_PER_FILTER * len(query.filters)
    )


def training_s(executed_plans: int, n_queries: int, iterations: int) -> float:
    """A learned optimizer's training time (Figure 6 axis), in seconds."""
    return (
        TRAINING_S_PER_EXECUTED_PLAN * executed_plans
        + TRAINING_S_PER_QUERY * n_queries
        + TRAINING_S_PER_ITERATION * max(iterations, 0)
    )
