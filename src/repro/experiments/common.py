"""Shared context construction for the experiment drivers.

Contexts are built *spec-first*: every driver database is addressed by a
:class:`~repro.storage.spec.DatabaseSpec` (generator id + scale + seed +
configuration) and materialized through the per-process
:class:`~repro.storage.registry.DatabaseRegistry`, which memoizes the build.
Drivers therefore share one instance per recipe within a process, and the
parallel runtime can ship the spec — not the data — when fanning tasks out to
worker processes.  The default scale keeps a full figure-4-style run in the
minutes range; pass a larger ``scale`` (or set the ``REPRO_SCALE`` environment
variable) for bigger databases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import SIMULATION_CONFIG, PostgresConfig, RuntimeConfig
from repro.storage.database import Database
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec
from repro.workloads import build_job_workload, build_stack_workload
from repro.workloads.workload import Workload

#: Default database scale used by the experiment drivers and benchmarks.
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))


@dataclass
class BenchmarkContext:
    """A database plus its bound workload (and the database's build recipe)."""

    database: Database
    workload: Workload
    spec: DatabaseSpec | None = None

    @property
    def schema_name(self) -> str:
        return self.database.schema.name

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


def framework_config() -> PostgresConfig:
    """The configuration the paper's framework uses, scaled to the simulation."""
    return SIMULATION_CONFIG


def distributed_runtime(
    store_dir: str | os.PathLike,
    workers: int = 2,
    shard_count: int = 4,
    queue_dir: str | os.PathLike | None = None,
    queue_url: str | None = None,
    lease_timeout_s: float = 60.0,
    task_retries: int = 1,
    work_stealing: bool = True,
    progress_interval_s: float | None = None,
    queue_secret: str | None = None,
) -> RuntimeConfig:
    """Runtime configuration of a multi-host distributed sweep.

    The sweep writes a :class:`~repro.runtime.result_store.ShardedResultStore`
    under ``store_dir`` (so concurrent writers never contend on one directory)
    and coordinates through a work queue.  By default that queue is file based
    at ``<store_dir>/queue`` and every worker host must mount the store's
    filesystem; pass ``queue_url="tcp://host:port"`` (port ``0`` for an
    ephemeral port) to serve the queue over TCP instead, in which case workers
    share *nothing* with the coordinator and results are uploaded back over
    the socket into the coordinator-local store.  ``workers`` local worker
    processes are launched by the coordinator; start more with
    ``python -m repro.runtime.worker <queue dir | tcp://...>`` on other hosts.
    Failed tasks are retried up to ``task_retries`` times before the sweep
    aborts.

    Tasks are enqueued with shard affinity matching the store shard their
    result routes to, and the coordinator *steals* pending work for starving
    shards unless ``work_stealing`` is disabled.  ``progress_interval_s``
    emits a machine-readable progress snapshot every that many seconds (also
    delivered to ``ParallelExperimentRunner``'s ``progress_callback``).  On an
    untrusted
    network, set ``queue_secret`` (or export ``REPRO_QUEUE_SECRET`` on every
    host): TCP frames are then HMAC-signed and verified before unpickling.
    """
    return RuntimeConfig(
        workers=workers,
        executor_kind="distributed",
        store_dir=str(store_dir),
        shard_count=shard_count,
        queue_dir=None if queue_dir is None else str(queue_dir),
        queue_url=queue_url,
        lease_timeout_s=lease_timeout_s,
        task_retries=task_retries,
        work_stealing=work_stealing,
        progress_interval_s=progress_interval_s,
        queue_secret=queue_secret,
    )
