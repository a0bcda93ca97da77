"""Distributed experiment sweep with a killed worker, resume and store merge.

Exercises the whole distributed runtime:

1. A coordinator serves the work queue over TCP on an ephemeral local port
   and fans a reduced Figure-4-style grid out onto ``REPRO_BENCH_WORKERS``
   (default 2) local worker processes forked from it, with live progress
   telemetry (a machine-readable snapshot every ``REPRO_BENCH_PROGRESS``
   seconds, default 2).  No queue/store directory is shared: workers upload
   results back inside their ack frames into the coordinator's **sharded**
   result store.
   Every frame is HMAC-signed with a secret the sweep mints and its forked
   workers inherit in memory; the script asserts that a client *without*
   the secret is rejected before anything is unpickled.
2. Once both workers are mid-task, one of them is SIGKILLed — the
   coordinator reaps it, re-queues its claim, and the surviving worker
   finishes the grid.
3. The same sweep runs again: everything resumes from the store, nothing is
   recomputed (asserted via stored-file mtimes).
4. The shards are merged into a flat store at ``<store>-merged``, every task
   is loaded back under its context fingerprint, and the whole grid is
   checked byte-identical against serial execution.  The final progress
   snapshot is saved as a store artifact (``artifacts/progress-final.json``).

The script exits non-zero if any of those properties is violated, so CI can
gate on it (the ``bench-distributed`` job).

Usage::

    PYTHONPATH=src python examples/distributed_sweep.py [store_dir]

Environment: ``REPRO_BENCH_WORKERS`` (local workers, default 2),
``REPRO_BENCH_PROGRESS`` (snapshot interval seconds, default 2),
``REPRO_BENCH_STORE`` (used when no ``store_dir`` argument is given;
with neither, a temp directory that a passing run removes again).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
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
from repro.runtime.netqueue import NetWorkQueue, QueueAuthError
from repro.runtime.parallel import ParallelExperimentRunner

METHODS = ("postgres", "bao")

#: How long frozen workers' last frames get to settle on the server before
#: the kill (persisting an uploaded result is one atomic file write).
SETTLE_S = 0.2

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


def assert_unauthenticated_client_rejected(runner: ParallelExperimentRunner) -> None:
    """A secret-less client must be turned away by the sweep's queue server
    before any of its bytes are unpickled."""
    with NetWorkQueue(runner._distributed_queue.url, secret="", retries=0) as intruder:  # unkeyed
        try:
            intruder.stop_requested()
        except QueueAuthError as exc:
            print(f"unauthenticated client rejected as expected: {exc}")
            return
    raise AssertionError("a client without the queue secret was accepted by the queue server")


def kill_one_worker_mid_sweep(
    runner: ParallelExperimentRunner, coordinator: threading.Thread
) -> bool:
    """Wait until every local worker holds a claim and one task is done, then
    SIGKILL one worker.  Returns whether a worker was killed.

    Progress is read through the coordinator's queue server
    (``runner._distributed_queue``).
    """
    deadline = time.monotonic() + 600
    while time.monotonic() < deadline and coordinator.is_alive():
        queue = runner._distributed_queue
        procs = [p for p in runner._distributed_procs if p.poll() is None]
        if queue is not None and len(procs) >= 2:
            stats = queue.stats()
            if stats.claimed >= len(procs) and stats.done >= 1:
                # Freeze every worker first: an ack sent just before is still
                # being persisted by the server, its claim still counted.  Once
                # that settled, every worker still holding a claim (one at
                # most each) means the victim holds one to strand.  Frozen
                # workers drain no tasks while this is checked.
                for proc in procs:
                    proc.send_signal(signal.SIGSTOP)
                time.sleep(SETTLE_S)
                stats = queue.stats()
                victim = procs[0] if stats.claimed >= len(procs) else None
                if victim is not None:
                    victim.kill()  # SIGKILL: no cleanup; the coordinator reaps it
                for proc in procs:
                    proc.send_signal(signal.SIGCONT)  # a no-op on the reaped victim
                if victim is not None:
                    print(f"killed worker pid {victim.pid} mid-sweep "
                          f"({stats.done} tasks done, {stats.claimed} claims held)")
                    return True
        time.sleep(0.05)
    return False


def merged_store_dir(store_dir: str) -> str:
    """Where the sweep merges its shards: ``<store>-merged``, next to the store."""
    return str(Path(store_dir).with_name(Path(store_dir).name + "-merged"))


def main(store_dir: str | None = None) -> None:
    store_dir = store_dir or os.environ.get("REPRO_BENCH_STORE")
    if store_dir:
        sweep(store_dir)
        return
    # A store this run makes for itself goes again after a passing sweep; a
    # failing one (an assertion raised) leaves it for inspection.
    store_dir = tempfile.mkdtemp(prefix="repro-distributed-")
    sweep(store_dir)
    shutil.rmtree(store_dir)
    shutil.rmtree(merged_store_dir(store_dir))


def sweep(store_dir: str) -> None:
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    progress_interval = float(os.environ.get("REPRO_BENCH_PROGRESS", "2"))
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
        # The queue binds an ephemeral coordinator port: workers share no
        # directory with it.
        runtime_config=distributed_runtime(
            store_dir,
            workers=workers,
            shard_count=4,
            progress_interval_s=progress_interval,
        ),
        progress_callback=on_progress,
    )
    store = runner.result_store
    tasks = runner.tasks_for(METHODS, splits, repeats=2)
    print(f"running {len(tasks)} tasks on {workers} queue workers "
          f"(HMAC-authenticated TCP queue, sharded store: {store_dir}) ...")

    # --- sweep 1: coordinator in a thread, one worker killed mid-sweep -----
    outcome: dict[str, list] = {}
    coordinator = threading.Thread(
        target=lambda: outcome.setdefault("results", runner.run_tasks(tasks)), daemon=True
    )
    start = time.perf_counter()
    coordinator.start()
    auth_checked = False
    # While the sweep runs, an unkeyed client must bounce off the server.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not auth_checked and coordinator.is_alive():
        if runner._distributed_queue is not None:
            assert_unauthenticated_client_rejected(runner)
            auth_checked = True
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
          f"{runner._distributed_requeued} dead worker claim(s) re-queued; "
          f"{store.describe()}")
    assert runner._distributed_requeued >= 1, "the dead worker's claim was never re-queued"

    # --- progress telemetry: at least one valid machine-readable snapshot ---
    assert snapshots, "the sweep emitted no progress snapshot"
    final_snapshot = snapshots[-1]
    assert final_snapshot.done == final_snapshot.total == len(tasks), (
        f"final snapshot incomplete: {final_snapshot.describe()}"
    )
    json.loads(final_snapshot.to_json())  # must round-trip as plain JSON
    store.save_artifact("progress-final", final_snapshot.to_dict())
    print(f"emitted {len(snapshots)} progress snapshot(s); final: {final_snapshot.describe()}")
    assert auth_checked, "the unauthenticated-client check never ran"
    # No shared queue directory exists, and every result entered the store
    # through the coordinator's upload sink, not through the workers.
    assert not (store.root / "queue").exists(), "the sweep created a queue directory"
    assert store.stored_count >= len(tasks), (
        "coordinator-side store counters show the workers wrote the store directly"
    )
    print(f"coordinator persisted {store.stored_count} uploaded result(s); "
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
    merged_dir = merged_store_dir(store_dir)
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
