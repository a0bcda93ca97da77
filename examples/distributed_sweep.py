"""Distributed experiment sweep with a killed worker, resume and store merge.

Exercises the full multi-host runtime on one machine:

1. A coordinator fans a reduced Figure-4-style grid out through the work
   queue onto ``REPRO_BENCH_WORKERS`` (default 2) local worker processes,
   with live progress telemetry (a machine-readable snapshot every
   ``REPRO_BENCH_PROGRESS`` seconds, default 2).  With
   ``REPRO_BENCH_TRANSPORT=file`` (default) the queue is a directory on a
   shared filesystem and the workers write the **sharded** result store
   themselves; with
   ``REPRO_BENCH_TRANSPORT=tcp`` the coordinator serves the queue over a
   socket, no queue/store directory is shared at all, and workers upload
   results back inside their ack frames.  With ``REPRO_QUEUE_SECRET`` set,
   every TCP frame is HMAC-signed — the script then also asserts that a
   client *without* the secret is rejected before anything is unpickled.
2. Once both workers are mid-task, one of them is SIGKILLed — its lease stops
   being renewed, the coordinator's expiry sweep re-queues its claim, and the
   surviving worker finishes the grid.  On the file transport the queue
   directory is then checked to hold only ``pending/``, ``claimed/``,
   ``done/``, ``failed/`` and the worker logs.
3. The same sweep runs again: everything resumes from the store, nothing is
   recomputed (asserted via stored-file mtimes).
4. The shards are merged into a flat store at ``<store>-merged``, every task
   is loaded back under its context fingerprint, and the whole grid is
   checked byte-identical against serial execution.  The final progress
   snapshot is saved as a store artifact (``artifacts/progress-final.json``).

The script exits non-zero if any of those properties is violated, so CI can
gate on it (the ``bench-distributed`` and ``bench-distributed-tcp`` jobs).

Usage::

    PYTHONPATH=src python examples/distributed_sweep.py [store_dir]

Environment: ``REPRO_BENCH_WORKERS`` (local workers, default 2),
``REPRO_BENCH_TRANSPORT`` (``file``/``tcp``, default ``file``),
``REPRO_BENCH_PROGRESS`` (snapshot interval seconds, default 2),
``REPRO_QUEUE_SECRET`` (tcp frame-signing secret, authentication off when
unset), ``REPRO_BENCH_STORE`` (used when no ``store_dir`` argument is given).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.report import store_report
from repro.core.splits import DatasetSplit, SplitSampling
from repro.experiments.common import distributed_runtime, job_context
from repro.runtime.netqueue import NetWorkQueue, QueueAuthError, QueueServer
from repro.runtime.parallel import ParallelExperimentRunner

METHODS = ("postgres", "bao")

EXPERIMENT_CONFIG = ExperimentConfig(
    optimizer_kwargs={"bao": {"training_passes": 1}},
    executions_per_query=2,
)


def demo_splits(workload_name: str) -> list[DatasetSplit]:
    """Two small fixed splits so the demo finishes in minutes, not hours."""
    return [
        DatasetSplit(workload_name, SplitSampling.RANDOM, 0,
                     train_ids=("1a", "2a", "3a", "6a"), test_ids=("1b", "2b", "4a")),
        DatasetSplit(workload_name, SplitSampling.RANDOM, 1,
                     train_ids=("6b", "8a", "17a", "10a"), test_ids=("3a", "1a", "20a")),
    ]


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_unauthenticated_client_rejected(runner: ParallelExperimentRunner) -> bool:
    """With a queue secret set, a secret-less client must be turned away
    before any of its bytes are unpickled.  Returns whether the check ran
    (it needs the sweep's TCP server to be up)."""
    queue = runner._distributed_queue
    if not isinstance(queue, QueueServer):
        return False
    intruder = NetWorkQueue(queue.url, secret="", retries=0)  # explicitly unkeyed
    try:
        intruder.stats()
    except QueueAuthError as exc:
        print(f"unauthenticated client rejected as expected: {exc}")
        return True
    raise AssertionError("a client without REPRO_QUEUE_SECRET was accepted by the queue server")


def assert_one_pending_pool(queue_root: Path) -> None:
    """The file queue's directories after a sweep: its four buckets and the
    worker logs, with every pending task in one flat pool."""
    found = {path.name for path in queue_root.iterdir() if path.is_dir()}
    expected = {"pending", "claimed", "done", "failed", "workers"}
    assert found <= expected, f"unexpected directories in {queue_root}: {sorted(found - expected)}"
    nested = [path.name for path in (queue_root / "pending").iterdir() if path.is_dir()]
    assert not nested, f"pending/ holds subdirectories {nested}: tasks must share one pool"
    print(f"file queue layout: {sorted(found)}, one pending pool")


def kill_one_worker_mid_sweep(
    runner: ParallelExperimentRunner, coordinator: threading.Thread
) -> bool:
    """Wait until every local worker holds a claim and one task is done, then
    SIGKILL one worker.  Returns whether a worker was killed.

    Progress is read through the coordinator's queue transport handle
    (``runner._distributed_queue``), which works identically for the file
    queue (directory counts) and the TCP server (in-memory counts).
    """
    deadline = time.monotonic() + 600
    while time.monotonic() < deadline and coordinator.is_alive():
        queue = runner._distributed_queue
        procs = [p for p in runner._distributed_procs if p.poll() is None]
        if queue is not None and len(procs) >= 2:
            stats = queue.stats()
            if stats.claimed >= len(procs) and stats.done >= 1:
                victim = procs[0]
                victim.kill()  # SIGKILL: no cleanup, its lease renewals just stop
                print(f"killed worker pid {victim.pid} mid-sweep "
                      f"({stats.done} tasks done, {stats.claimed} claims held)")
                return True
        time.sleep(0.05)
    return False


def main(store_dir: str | None = None) -> None:
    if store_dir is None:
        store_dir = os.environ.get("REPRO_BENCH_STORE") or tempfile.mkdtemp(
            prefix="repro-distributed-"
        )
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    transport = os.environ.get("REPRO_BENCH_TRANSPORT", "file")
    progress_interval = float(os.environ.get("REPRO_BENCH_PROGRESS", "2"))
    secured = bool(os.environ.get("REPRO_QUEUE_SECRET"))
    assert transport in ("file", "tcp"), f"unknown REPRO_BENCH_TRANSPORT {transport!r}"
    context = job_context(scale=0.25)
    splits = demo_splits(context.workload.name)
    snapshots: list = []

    def on_progress(snapshot) -> None:
        snapshots.append(snapshot)
        print(f"progress {snapshot.describe()}")

    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=EXPERIMENT_CONFIG,
        # A short lease keeps the dead worker's re-queue snappy in the demo; a
        # real sweep would leave the 60 s default.  The tcp transport binds an
        # ephemeral coordinator port: workers share no directory with it.
        runtime_config=distributed_runtime(
            store_dir,
            workers=workers,
            shard_count=4,
            lease_timeout_s=3.0,
            queue_url="tcp://127.0.0.1:0" if transport == "tcp" else None,
            progress_interval_s=progress_interval,
        ),
        progress_callback=on_progress,
    )
    store = runner.result_store
    tasks = runner.tasks_for(METHODS, splits, repeats=2)
    print(f"running {len(tasks)} tasks on {workers} queue workers "
          f"({transport} transport{', HMAC-authenticated' if secured else ''}, "
          f"sharded store: {store_dir}) ...")

    # --- sweep 1: coordinator in a thread, one worker killed mid-sweep -----
    outcome: dict[str, list] = {}
    coordinator = threading.Thread(
        target=lambda: outcome.setdefault("results", runner.run_tasks(tasks)), daemon=True
    )
    start = time.perf_counter()
    coordinator.start()
    auth_checked = False
    if secured and transport == "tcp":
        # While the sweep runs, an unkeyed client must bounce off the server.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not auth_checked and coordinator.is_alive():
            if runner._distributed_queue is not None:
                auth_checked = assert_unauthenticated_client_rejected(runner)
            time.sleep(0.05)
    killed = kill_one_worker_mid_sweep(runner, coordinator)
    coordinator.join(timeout=1800)
    assert not coordinator.is_alive(), "coordinator did not finish"
    assert "results" in outcome, "sweep produced no results"
    results = outcome["results"]
    assert killed, (
        "never caught both workers busy, so nothing was killed "
        "(was the store already populated? the crash demo needs a fresh store dir)"
    )
    print(f"first sweep survived the kill in {time.perf_counter() - start:.1f} s; "
          f"{runner._distributed_requeued} expired claim(s) re-queued; "
          f"{store.describe()}")
    assert runner._distributed_requeued >= 1, "the dead worker's claim was never re-queued"
    if transport == "file":
        assert_one_pending_pool(store.root / "queue")

    # --- progress telemetry: at least one valid machine-readable snapshot ---
    assert snapshots, "the sweep emitted no progress snapshot"
    final_snapshot = snapshots[-1]
    assert final_snapshot.done == final_snapshot.total == len(tasks), (
        f"final snapshot incomplete: {final_snapshot.describe()}"
    )
    json.loads(final_snapshot.to_json())  # must round-trip as plain JSON
    store.save_artifact("progress-final", final_snapshot.to_dict())
    print(f"emitted {len(snapshots)} progress snapshot(s); final: {final_snapshot.describe()}")
    if secured and transport == "tcp":
        assert auth_checked, "the unauthenticated-client check never ran"
    if transport == "tcp":
        # No shared queue directory exists, and every result entered the store
        # through the coordinator's upload sink, not through the workers.
        assert not (store.root / "queue").exists(), "tcp sweep created a queue directory"
        assert store.stored_count >= len(tasks), (
            "coordinator-side store counters show the workers wrote the store directly"
        )
        print(f"tcp transport: coordinator persisted {store.stored_count} uploaded result(s); "
              "no queue/store directory was shared with any worker")

    # --- sweep 2: full resume, nothing recomputed --------------------------
    files_before = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert len(files_before) == len(tasks)
    start = time.perf_counter()
    rerun = runner.run_tasks(tasks)
    print(f"second sweep (resumed from shards): {time.perf_counter() - start:.3f} s")
    files_after = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert files_after == files_before, "resume recomputed and re-wrote result files"
    assert [result_json(r) for r in rerun] == [result_json(r) for r in results]

    # --- merge + serial equivalence ----------------------------------------
    merged_dir = str(Path(store_dir).with_name(Path(store_dir).name + "-merged"))
    merged = store.merge(merged_dir)
    print(f"merged {len(files_before)} results from {store.manifest()['shard_count']} shards "
          f"into {merged_dir}")
    serial = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=EXPERIMENT_CONFIG,
        runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
    )
    expected = serial.run_tasks(tasks)
    for task, reference in zip(tasks, expected):
        key, fingerprint = runner.task_key(task), runner.task_fingerprint(task)
        assert merged.exists(key, fingerprint), f"merged store is missing {key.describe()}"
        assert result_json(merged.load(key, fingerprint)) == result_json(reference), (
            f"distributed result for {key.describe()} differs from serial execution"
        )
    print(f"distributed results byte-identical to serial for all {len(tasks)} tasks")
    print()
    print(store_report(merged, title="Report regenerated from the merged store"))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
