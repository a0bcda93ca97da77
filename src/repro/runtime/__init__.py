"""The experiment runtime: parallel fan-out, plan caching, resumable results.

This package turns the strictly serial experiment harness into a runtime that
scales with the hardware.  It re-exports nothing: import each name from the
module that defines it.

* :mod:`repro.runtime.fingerprint` — stable content fingerprints for queries,
  configurations and hint sets (the keys of everything cached below).
* :mod:`repro.runtime.plan_cache` — a shared LRU ``PlanCache`` for planner
  results, wired into :class:`repro.optimizer.planner.Planner`.
* :mod:`repro.runtime.result_store` — a resumable JSON ``ResultStore`` with
  PostBOUND-style skip-existing semantics; with ``shard_count > 0`` it
  partitions results over N shard directories (``merge`` copies them into
  a flat store).
* :mod:`repro.runtime.workqueue` — the ``ResultUpload`` a forked sweep
  worker answers each task with.
* :mod:`repro.runtime.netqueue` — the authenticated TCP frame transport
  under the plan server (``FrameServer``/``FrameClient``), HMAC-verified
  before anything is unpickled.
* :mod:`repro.runtime.planserver` / :mod:`repro.runtime.planclient` — the
  plan-serving control plane: a ``PlanServer`` answering SQL-text planning
  requests over that authenticated frame codec, all clients sharing one
  ``PlanCache`` with generation-bump invalidation and explicit admission
  control (see ``docs/SERVING.md``).
* :mod:`repro.runtime.progress` — the machine-readable ``ProgressSnapshot``
  (throughput, ETA, per-worker counts) a distributed sweep's coordinator
  builds from its own counters, periodically and at the end.
* :mod:`repro.runtime.parallel` — the ``ParallelExperimentRunner`` that runs
  the (method × split × seed) grid serially or, with
  ``executor_kind="distributed"``, on workers forked from the coordinator,
  each fed its tasks over its own pipe — with results bit-identical to
  serial execution.
"""
