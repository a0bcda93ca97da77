"""Distributed experiment sweep with a killed worker, resume and store merge.

Exercises the whole distributed runtime:

1. A coordinator fans a reduced Figure-4-style grid out onto
   ``REPRO_BENCH_WORKERS`` (default 2) local worker processes forked from
   it, with live progress telemetry (a machine-readable snapshot every
   ``REPRO_BENCH_PROGRESS`` seconds, default 0.02).  Each worker gets its tasks
   over its own pipe and sends the results back over it; the coordinator
   writes them into its **sharded** result store.  No socket is opened and
   no directory is shared with a worker.
2. Once every worker holds a task and one task is done, the progress
   callback SIGKILLs a worker: its pipe reports EOF, the coordinator
   re-queues its task, and the surviving worker finishes the grid.
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
``REPRO_BENCH_PROGRESS`` (snapshot interval seconds, default 0.02),
``REPRO_BENCH_STORE`` (used when no ``store_dir`` argument is given;
with neither, a temp directory that a passing run removes again).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.report import store_report
from repro.core.splits import DatasetSplit, SplitSampling
from repro.experiments.common import distributed_runtime, job_context
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
    progress_interval = float(os.environ.get("REPRO_BENCH_PROGRESS", "0.02"))
    context = job_context(scale=0.25)
    splits = demo_splits(context.workload.name)
    snapshots: list = []
    killed: list[int] = []

    def on_progress(snapshot) -> None:
        """Print each snapshot; kill one worker once every worker holds a
        task and one task is done.  The callback runs in the coordinator's
        loop, so the counts are the coordinator's own at that moment."""
        snapshots.append(snapshot)
        print(f"progress {snapshot.describe()}")
        live = [proc for proc in runner._distributed_procs if proc.poll() is None]
        if not killed and len(live) >= 2 and snapshot.claimed >= len(live) and snapshot.done >= 1:
            victim = live[0]
            victim.kill()  # SIGKILL: no cleanup; its pipe reports EOF
            killed.append(victim.pid)
            print(f"killed worker pid {victim.pid} mid-sweep "
                  f"({snapshot.done} tasks done, {snapshot.claimed} held)")

    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=EXPERIMENT_CONFIG,
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
    print(f"running {len(tasks)} tasks on {workers} forked workers "
          f"(one pipe each, sharded store: {store_dir}) ...")

    # --- sweep 1: one worker killed mid-sweep ------------------------------
    start = time.perf_counter()
    results = runner.run_tasks(tasks)
    assert killed, (
        "never caught every worker busy, so nothing was killed "
        "(was the store already populated? the crash demo needs a fresh store dir)"
    )
    print(f"first sweep survived the kill in {time.perf_counter() - start:.1f} s; "
          f"{runner._distributed_requeued} dead worker task(s) re-queued; "
          f"{store.describe()}")
    assert runner._distributed_requeued >= 1, "the dead worker's task was never re-queued"

    # --- progress telemetry: at least one valid machine-readable snapshot ---
    assert snapshots, "the sweep emitted no progress snapshot"
    final_snapshot = snapshots[-1]
    assert final_snapshot.done == final_snapshot.total == len(tasks), (
        f"final snapshot incomplete: {final_snapshot.describe()}"
    )
    json.loads(final_snapshot.to_json())  # must round-trip as plain JSON
    store.save_artifact("progress-final", final_snapshot.to_dict())
    print(f"emitted {len(snapshots)} progress snapshot(s); final: {final_snapshot.describe()}")
    # Every result entered the store through the coordinator, which read
    # none of them back.
    assert (store.stored_count, store.loaded_count) == (len(tasks), 0), store.describe()
    print(f"coordinator persisted {store.stored_count} result(s) its workers sent")

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
