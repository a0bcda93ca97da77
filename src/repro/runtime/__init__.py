"""The experiment runtime: parallel fan-out, plan caching, resumable results.

This package turns the strictly serial experiment harness into a runtime that
scales with the hardware:

* :mod:`repro.runtime.fingerprint` — stable content fingerprints for queries,
  configurations and hint sets (the keys of everything cached below).
* :mod:`repro.runtime.plan_cache` — a shared LRU :class:`PlanCache` for
  planner results, wired into :class:`repro.optimizer.planner.Planner`.
* :mod:`repro.runtime.result_store` — a resumable JSON :class:`ResultStore`
  with PostBOUND-style skip-existing semantics; with ``shard_count > 0`` it
  partitions results over N shard directories for contention-free
  multi-host writes (``merge`` copies them into a flat store).
* :mod:`repro.runtime.workqueue` — the work queue's state machine
  (:class:`~repro.runtime.workqueue.BucketQueue`: every operation one step
  under one lock; one pending pool claimed lowest id first, monotonic lease
  heartbeats, dead-worker re-queue) and the worker-side
  :class:`WorkerQueueTransport` protocol.
* :mod:`repro.runtime.netqueue` — the queue's TCP transport: a
  coordinator-side :class:`QueueServer` plus the :class:`NetWorkQueue` worker
  client, with results uploaded back in the ack frame — no shared filesystem
  required — and HMAC frame authentication (``REPRO_QUEUE_SECRET``, or a
  secret each sweep mints) verified before anything is unpickled.
* :mod:`repro.runtime.planserver` / :mod:`repro.runtime.planclient` — the
  plan-serving control plane: a :class:`PlanServer` answering SQL-text
  planning requests over the same authenticated frame codec, all clients
  sharing one :class:`PlanCache` with generation-bump invalidation and
  explicit admission control (see ``docs/SERVING.md``).
* :mod:`repro.runtime.progress` — the :class:`SweepProgress` reporter that
  turns live queue stats into periodic machine-readable
  :class:`ProgressSnapshot`\\ s (throughput, ETA, per-worker counts).
* :mod:`repro.runtime.worker` — the ``python -m repro.runtime.worker``
  claim-execute-ack loop run on each participating host.
* :mod:`repro.runtime.parallel` — the :class:`ParallelExperimentRunner` that
  runs the (method × split × seed) grid serially or, with
  ``executor_kind="distributed"``, over the work queue — with
  results bit-identical to serial execution.
"""

from repro.runtime.fingerprint import (
    canonical_query_text,
    query_fingerprint,
    stable_hash,
    stable_seed,
)
from repro.runtime.netqueue import (
    NetWorkQueue,
    QueueAuthError,
    QueueServer,
    resolve_queue_secret,
)
from repro.runtime.plan_cache import CacheStats, PlanCache
from repro.runtime.progress import ProgressSnapshot, SweepProgress
from repro.runtime.result_store import ResultStore, TaskKey
from repro.runtime.workqueue import (
    QueueAddress,
    QueueStats,
    ResultUpload,
    TaskClaim,
    WorkerQueueTransport,
    parse_queue_url,
)


def __getattr__(name: str):
    # The parallel runner is exported lazily: importing it eagerly would close
    # an import cycle (planner -> plan_cache -> this package -> parallel ->
    # core.experiment -> lqo.base -> planner).  The plan-serving control plane
    # is lazy for the same reason (planserver -> optimizer.planner).
    if name in ("ExperimentTask", "ParallelExperimentRunner", "SpecTaskPayload"):
        from repro.runtime import parallel

        return getattr(parallel, name)
    if name in ("PlanServer", "PlanServerStats"):
        from repro.runtime import planserver

        return getattr(planserver, name)
    if name in ("PlanClient", "ServedPlan"):
        from repro.runtime import planclient

        return getattr(planclient, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CacheStats",
    "ExperimentTask",
    "NetWorkQueue",
    "ParallelExperimentRunner",
    "SpecTaskPayload",
    "PlanCache",
    "PlanClient",
    "PlanServer",
    "PlanServerStats",
    "ProgressSnapshot",
    "ServedPlan",
    "QueueAddress",
    "QueueAuthError",
    "QueueServer",
    "QueueStats",
    "ResultStore",
    "ResultUpload",
    "SweepProgress",
    "TaskClaim",
    "TaskKey",
    "WorkerQueueTransport",
    "parse_queue_url",
    "resolve_queue_secret",
    "canonical_query_text",
    "query_fingerprint",
    "stable_hash",
    "stable_seed",
]
