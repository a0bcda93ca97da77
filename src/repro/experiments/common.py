"""Shared context construction for the experiment drivers.

Contexts are built *spec-first*: every driver database is addressed by a
:class:`~repro.storage.spec.DatabaseSpec` (generator id + scale + seed +
configuration) and materialized through the per-process
:class:`~repro.storage.registry.DatabaseRegistry`, which memoizes the build.
Drivers therefore share one instance per recipe within a process, and the
parallel runtime can ship the spec — not the data — when fanning tasks out to
worker processes.  The default scale keeps a full figure-4-style run in the
minutes range; pass a larger ``scale`` for bigger databases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import SIMULATION_CONFIG, RuntimeConfig
from repro.storage.database import Database
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_job_workload, build_stack_workload
from repro.workloads.workload import Workload

#: Default database scale of the figures (``python -m repro.experiments``).
DEFAULT_SCALE = 0.35


@dataclass
class BenchmarkContext:
    """A database plus its bound workload (and the database's build recipe)."""

    database: Database
    workload: Workload
    spec: DatabaseSpec | None = None

    @property
    def dispatch_source(self) -> Database | DatabaseSpec:
        """What to hand the experiment runners: the spec when one exists."""
        return self.spec if self.spec is not None else self.database


def job_spec(scale: float | None = None, seed: int = 42) -> DatabaseSpec:
    """Spec of the synthetic IMDB instance the JOB drivers run on."""
    return DatabaseSpec.create(
        "imdb",
        scale=scale if scale is not None else DEFAULT_SCALE,
        seed=seed,
        config=SIMULATION_CONFIG,
    )


def stack_spec(scale: float | None = None, seed: int = 1337) -> DatabaseSpec:
    """Spec of the synthetic StackExchange instance."""
    return DatabaseSpec.create(
        "stack",
        scale=scale if scale is not None else DEFAULT_SCALE,
        seed=seed,
        config=SIMULATION_CONFIG,
    )


def imdb_half_spec(scale: float | None = None, seed: int = 42) -> DatabaseSpec:
    """Spec of IMDB-50% (title Bernoulli-sampled, cascaded) for Section 8.3."""
    return DatabaseSpec.create(
        "imdb-half",
        scale=scale if scale is not None else DEFAULT_SCALE,
        seed=seed,
        config=SIMULATION_CONFIG,
        title_fraction=0.5,
        sample_seed=7,
    )


def job_context(scale: float | None = None, seed: int = 42) -> BenchmarkContext:
    """Synthetic IMDB plus the 113-query JOB-style workload."""
    spec = job_spec(scale, seed)
    database = get_process_registry().get(spec)
    return BenchmarkContext(
        database=database, workload=build_job_workload(database.schema), spec=spec
    )


def stack_context(scale: float | None = None, seed: int = 1337) -> BenchmarkContext:
    """Synthetic StackExchange plus the down-sampled STACK workload."""
    spec = stack_spec(scale, seed)
    database = get_process_registry().get(spec)
    return BenchmarkContext(
        database=database, workload=build_stack_workload(database.schema), spec=spec
    )


def imdb_half_database(scale: float | None = None, seed: int = 42) -> Database:
    """IMDB-50% for the covariate-shift study (title Bernoulli-sampled at 50%)."""
    return get_process_registry().get(imdb_half_spec(scale, seed))


def distributed_runtime(
    store_dir: str | os.PathLike,
    workers: int = 2,
    shard_count: int = 4,
    queue_url: str = "tcp://127.0.0.1:0",
    task_retries: int = 1,
    progress_interval_s: float | None = None,
    queue_secret: str | None = None,
) -> RuntimeConfig:
    """Runtime configuration of a distributed sweep on this host.

    The sweep writes a :class:`~repro.runtime.result_store.ResultStore` with
    ``shard_count`` shard directories under ``store_dir`` and forks
    ``workers`` worker processes from the coordinator.  The coordinator
    sends each fork one task at a time over the fork's pipe, in grid order,
    and writes the results the forks send back into its store.  A fork
    that dies has its task re-sent to another.  Failed tasks are re-sent up
    to ``task_retries`` times before the sweep aborts.
    ``progress_interval_s`` hands ``ParallelExperimentRunner``'s
    ``progress_callback`` a machine-readable progress snapshot every that
    many seconds.  ``queue_url`` and ``queue_secret`` are validated and
    ignored: the sweep opens no socket.
    """
    return RuntimeConfig(
        workers=workers,
        executor_kind="distributed",
        store_dir=str(store_dir),
        shard_count=shard_count,
        queue_url=queue_url,
        task_retries=task_retries,
        progress_interval_s=progress_interval_s,
        queue_secret=queue_secret,
    )
