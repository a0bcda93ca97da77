"""DBMS configuration knobs and the named presets from Table 2 of the paper.

The simulated DBMS honours the same configuration surface that the paper
compares across publications: join-order parameters (``geqo``,
``geqo_threshold``, ``join_collapse_limit``), working-memory parameters
(``work_mem``, ``shared_buffers``, ``temp_buffers``, ``effective_cache_size``),
parallelization parameters and the scan-type switches
(``enable_bitmapscan`` / ``enable_tidscan``).

:data:`CONFIG_PRESETS` holds the per-paper configurations of Table 2 so that
the table can be regenerated programmatically (see
``repro.experiments.table2``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Mapping

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Size of one simulated heap/index page in bytes (PostgreSQL default).
PAGE_SIZE_BYTES = 8 * KB

#: The planner cost constants of :class:`PostgresConfig`.
_COST_CONSTANTS = (
    "seq_page_cost", "random_page_cost", "cpu_tuple_cost", "cpu_index_tuple_cost",
    "cpu_operator_cost", "parallel_setup_cost", "parallel_tuple_cost",
)


@dataclass(frozen=True)
class PostgresConfig:
    """Configuration of the simulated PostgreSQL instance.

    All sizes are expressed in bytes; helper properties expose the page-count
    view used by the cost model and buffer pool.  The defaults correspond to
    PostgreSQL's stock configuration (first column of Table 2).
    """

    # --- join order -------------------------------------------------------
    geqo: bool = True
    geqo_threshold: int = 12
    join_collapse_limit: int = 8

    # --- working memory ---------------------------------------------------
    work_mem: int = 4 * MB
    shared_buffers: int = 128 * MB
    temp_buffers: int = 8 * MB
    effective_cache_size: int = 4 * GB

    # --- parallelization --------------------------------------------------
    max_parallel_workers: int = 8
    max_parallel_workers_per_gather: int = 8
    max_worker_processes: int = 2

    # --- planner operator switches ----------------------------------------
    enable_seqscan: bool = True
    enable_indexscan: bool = True
    enable_bitmapscan: bool = True
    enable_tidscan: bool = True
    enable_nestloop: bool = True
    enable_hashjoin: bool = True
    enable_mergejoin: bool = True

    # --- cost model constants (PostgreSQL defaults) ------------------------
    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    parallel_setup_cost: float = 1000.0
    parallel_tuple_cost: float = 0.1

    # --- execution / measurement ------------------------------------------
    statement_timeout_ms: float = 0.0  #: 0 disables the timeout.
    autovacuum: bool = True
    #: Whether the planner allows bushy join trees (PostgreSQL does).
    enable_bushy_plans: bool = True
    #: Amount of physical RAM of the simulated host (Table 2, first row).
    host_ram: int = 64 * GB

    # ----------------------------------------------------------------------
    def __post_init__(self) -> None:
        # PostgreSQL's GUC minimum for each is 0.  The planner relies on it:
        # every join cost term is >= 0, which makes its cost bound exact
        # (``CostModel.join_cost_bound``).
        for name in _COST_CONSTANTS:
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"PostgresConfig.{name} must be >= 0, got {value!r}")

    @property
    def shared_buffer_pages(self) -> int:
        """Number of 8 KB pages the buffer pool can hold."""
        return max(1, self.shared_buffers // PAGE_SIZE_BYTES)

    @property
    def effective_cache_pages(self) -> int:
        """Number of pages assumed cached by the OS + PostgreSQL combined."""
        return max(1, self.effective_cache_size // PAGE_SIZE_BYTES)

    @property
    def work_mem_tuples(self) -> int:
        """Rough number of 100-byte tuples that fit into ``work_mem``."""
        return max(1, self.work_mem // 100)

    def with_overrides(self, **overrides: Any) -> "PostgresConfig":
        """Return a copy of this configuration with selected knobs replaced."""
        return replace(self, **overrides)

    def geqo_enabled_for(self, n_relations: int) -> bool:
        """Whether GEQO would plan a join of ``n_relations`` base relations."""
        return self.geqo and n_relations >= self.geqo_threshold

    def to_dict(self) -> dict[str, Any]:
        """Flat dictionary of every knob, suitable for reports and tests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fingerprint(self) -> str:
        """Stable, content-based fingerprint over every knob.

        Two equal configurations always produce the same fingerprint (across
        processes and interpreter restarts — no reliance on ``hash()``), and
        changing any knob changes it.  The plan cache and the result store use
        this to key cached artefacts to the exact configuration that produced
        them.
        """
        payload = ";".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def diff_from_default(self) -> dict[str, tuple[Any, Any]]:
        """Knobs that deviate from PostgreSQL defaults as ``{name: (default, value)}``."""
        default = PostgresConfig()
        out: dict[str, tuple[Any, Any]] = {}
        for f in fields(self):
            dval = getattr(default, f.name)
            val = getattr(self, f.name)
            if val != dval:
                out[f.name] = (dval, val)
        return out


def format_bytes(n_bytes: int) -> str:
    """Human readable rendering of a byte size (``4 GB``, ``128 MB``, ...)."""
    if n_bytes % GB == 0 and n_bytes >= GB:
        return f"{n_bytes // GB} GB"
    if n_bytes % MB == 0 and n_bytes >= MB:
        return f"{n_bytes // MB} MB"
    if n_bytes % KB == 0 and n_bytes >= KB:
        return f"{n_bytes // KB} KB"
    return f"{n_bytes} B"


# ---------------------------------------------------------------------------
# Named presets from Table 2 of the paper.
# ---------------------------------------------------------------------------

#: PostgreSQL stock configuration (the "Default Values" column).
DEFAULT_CONFIG = PostgresConfig()

#: Configuration suggested by the Join Order Benchmark paper (Leis et al.).
JOB_LEIS_CONFIG = DEFAULT_CONFIG.with_overrides(
    geqo_threshold=18,
    work_mem=2 * GB,
    shared_buffers=4 * GB,
    effective_cache_size=32 * GB,
    host_ram=64 * GB,
)

#: Configuration used by Bao (Marcus et al.).
BAO_CONFIG = DEFAULT_CONFIG.with_overrides(
    shared_buffers=4 * GB,
    host_ram=15 * GB,
)

#: Configuration used by Balsa and LEON (identical per Table 2).
BALSA_LEON_CONFIG = DEFAULT_CONFIG.with_overrides(
    geqo=False,
    work_mem=4 * GB,
    shared_buffers=32 * GB,
    temp_buffers=32 * GB,
    max_worker_processes=8,
    enable_bitmapscan=False,
    enable_tidscan=False,
    host_ram=64 * GB,
)

#: Configuration used by LOGER.
LOGER_CONFIG = DEFAULT_CONFIG.with_overrides(
    geqo=False,
    shared_buffers=64 * GB,
    max_parallel_workers=1,
    max_parallel_workers_per_gather=1,
    host_ram=256 * GB,
)

#: Configuration used by Lero.
LERO_CONFIG = DEFAULT_CONFIG.with_overrides(
    geqo=False,
    max_parallel_workers=0,
    max_parallel_workers_per_gather=0,
    host_ram=512 * GB,
)

#: The paper's own framework configuration (Section 8.1.1): Balsa's memory
#: settings, bitmap/tid scans re-enabled, effective_cache_size raised to 32 GB,
#: GEQO left on only when PostgreSQL fully controls execution.
OUR_FRAMEWORK_CONFIG = DEFAULT_CONFIG.with_overrides(
    geqo=True,
    work_mem=4 * GB,
    shared_buffers=32 * GB,
    temp_buffers=32 * GB,
    effective_cache_size=32 * GB,
    max_worker_processes=8,
    autovacuum=False,
    host_ram=64 * GB,
)

#: Laptop-scale configuration used by the test-suite and the examples: small
#: buffers so cold/hot cache effects are visible on synthetic data.
SIMULATION_CONFIG = DEFAULT_CONFIG.with_overrides(
    work_mem=1 * MB,
    shared_buffers=8 * MB,
    effective_cache_size=32 * MB,
    autovacuum=False,
)

#: Ordered mapping of preset name -> configuration, mirroring Table 2 columns.
CONFIG_PRESETS: Mapping[str, PostgresConfig] = {
    "default": DEFAULT_CONFIG,
    "job_leis": JOB_LEIS_CONFIG,
    "bao": BAO_CONFIG,
    "balsa_leon": BALSA_LEON_CONFIG,
    "loger": LOGER_CONFIG,
    "lero": LERO_CONFIG,
    "our_framework": OUR_FRAMEWORK_CONFIG,
}

#: Human readable column titles for Table 2 regeneration.
PRESET_TITLES: Mapping[str, str] = {
    "default": "PostgreSQL defaults",
    "job_leis": "JOB (Leis et al.)",
    "bao": "Bao",
    "balsa_leon": "Balsa, LEON",
    "loger": "LOGER",
    "lero": "Lero",
    "our_framework": "Our Framework",
}


def iter_presets() -> Iterator[tuple[str, PostgresConfig]]:
    """Iterate over ``(name, config)`` pairs in Table 2 column order."""
    return iter(CONFIG_PRESETS.items())


# ---------------------------------------------------------------------------
# Experiment runtime configuration (parallel fan-out, caching, result store).
# ---------------------------------------------------------------------------

#: Executor kinds accepted by :class:`RuntimeConfig`.
EXECUTOR_KINDS = ("serial", "distributed")

#: Execution-engine kinds accepted by
#: :func:`repro.executor.engine.create_engine`.  ``"columnar"`` (the default)
#: evaluates plans over late-materialized column batches; ``"row"`` is the
#: original per-alias row-id engine, kept as the correctness oracle the
#: equivalence test suite checks the columnar engine against.  Both engines
#: produce byte-identical results, cardinalities and simulated timings.
ENGINE_KINDS = ("columnar", "row")


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the parallel experiment runtime (``repro.runtime``).

    Attributes:
        workers: number of worker processes a ``"distributed"`` coordinator
            forks from itself, the sweep's only workers.  The serial
            executor runs one task at a time whatever this says.
        executor_kind: ``"serial"`` (default) or ``"distributed"``.  Serial
            runs every task in this process; distributed execution fans tasks
            out to worker processes through the coordinator's TCP work queue
            (``queue_url``).
        store_dir: directory of the resumable JSON result store: completed
            (method, split, seed) tasks found there are loaded instead of
            re-run.  ``None`` disables persistence.
        shard_count: with ``store_dir`` set, a value > 0 partitions the
            :class:`~repro.runtime.result_store.ResultStore` over that many
            shard directories; ``0`` keeps the flat single-directory
            layout.  The store's manifest pins the count: reopening it with
            another raises.  Only results are sharded — every worker claims
            from one pending pool.
        queue_url: ``tcp://<host>:<port>`` the coordinator serves the
            distributed work queue on (port ``0``, the default on loopback,
            binds an ephemeral port).  Its forked workers claim over the
            socket and upload results back with their acks; the coordinator
            re-queues a worker's claims when it reaps the worker.
        task_retries: how many times the distributed coordinator re-queues a
            *failed* task (transient errors: OOM-killed imports, flaky I/O)
            before the sweep is aborted; the final error reports the attempt
            count.  ``0`` fails the sweep on the first failure marker.
        progress_interval_s: emit a machine-readable
            :class:`~repro.runtime.progress.ProgressSnapshot` from the
            coordinator every this many seconds during a distributed sweep
            (``None`` disables periodic snapshots; a final end-of-sweep
            snapshot is still taken whenever a ``progress_callback`` is
            installed on the runner).
        queue_secret: HMAC secret authenticating every queue frame; ``None``
            (the default) makes each sweep mint a random one.  Either way
            the forked workers inherit it in memory, never through the
            environment.  Unauthenticated or mis-signed frames are rejected
            *before* unpickling.  An explicit ``""`` turns authentication
            off.
    """

    workers: int = 1
    executor_kind: str = "serial"
    store_dir: str | None = None
    shard_count: int = 0
    queue_url: str = "tcp://127.0.0.1:0"
    task_retries: int = 1
    progress_interval_s: float | None = None
    queue_secret: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("RuntimeConfig.workers must be >= 1")
        if self.executor_kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {self.executor_kind!r}; expected one of {EXECUTOR_KINDS}"
            )
        if self.shard_count < 0:
            raise ValueError("RuntimeConfig.shard_count must be >= 0")
        if self.task_retries < 0:
            raise ValueError("RuntimeConfig.task_retries must be >= 0")
        if self.progress_interval_s is not None and self.progress_interval_s <= 0:
            raise ValueError("RuntimeConfig.progress_interval_s must be positive (or None)")
        # Validate with the one real parser (lazy import: repro.runtime
        # depends on this module at class-definition time, not vice versa)
        # so malformed urls fail at construction, not mid-sweep.
        from repro.errors import ExperimentError
        from repro.runtime.workqueue import parse_queue_url

        try:
            parse_queue_url(self.queue_url)
        except ExperimentError as exc:
            raise ValueError(f"invalid RuntimeConfig.queue_url: {exc}") from exc

    def with_overrides(self, **overrides: Any) -> "RuntimeConfig":
        return replace(self, **overrides)


#: Default runtime: serial-equivalent execution with plan caching enabled.
DEFAULT_RUNTIME_CONFIG = RuntimeConfig()
