"""Parallel, resumable experiment sweeps with the repro runtime.

Runs a reduced Figure-4-style grid twice:

1. on the ``REPRO_BENCH_EXECUTOR`` executor (``serial`` by default;
   ``distributed`` fans it out over ``REPRO_BENCH_WORKERS`` worker processes,
   default 4) with results persisted into a JSON result store, and
2. again — which resumes from the store and recomputes nothing (the script
   exits non-zero if any task was re-run, so CI can assert resume-skip).

The distributed executor's crash-recovery demo is
``examples/distributed_sweep.py``.

Usage::

    PYTHONPATH=src python examples/parallel_experiments.py [store_dir]

Environment: ``REPRO_BENCH_WORKERS``, ``REPRO_BENCH_EXECUTOR``
(``serial``/``distributed``), ``REPRO_BENCH_STORE`` (used when no ``store_dir``
argument is given; with neither, a temp directory that a passing run removes
again).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.report import format_table, store_report
from repro.core.splits import DatasetSplit, SplitSampling
from repro.experiments.common import job_context
from repro.lqo.registry import MAIN_EVALUATION_METHODS
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import ResultStore

METHODS = tuple(m for m in MAIN_EVALUATION_METHODS if m in ("postgres", "bao"))


def demo_splits(workload_name: str) -> list[DatasetSplit]:
    """Two small fixed splits so the demo finishes in seconds (a real sweep
    would use ``repro.core.splits.generate_splits`` over the full workload)."""
    return [
        DatasetSplit(workload_name, SplitSampling.RANDOM, 0,
                     train_ids=("1a", "2a", "3a", "6a"), test_ids=("1b", "2b", "4a")),
        DatasetSplit(workload_name, SplitSampling.RANDOM, 1,
                     train_ids=("6b", "8a", "17a", "10a"), test_ids=("3a", "1a", "20a")),
    ]


def main(store_dir: str | None = None) -> None:
    store_dir = store_dir or os.environ.get("REPRO_BENCH_STORE")
    if store_dir:
        sweep(store_dir)
        return
    # A store this run makes for itself goes again after a passing sweep; a
    # failing one (an assertion raised) leaves it for inspection.
    store_dir = tempfile.mkdtemp(prefix="repro-results-")
    sweep(store_dir)
    shutil.rmtree(store_dir)


def sweep(store_dir: str) -> None:
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    executor_kind = os.environ.get("REPRO_BENCH_EXECUTOR", "serial")
    context = job_context(scale=0.25)
    splits = demo_splits(context.workload.name)
    store = ResultStore(store_dir)
    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=ExperimentConfig(
            optimizer_kwargs={"bao": {"training_passes": 1}},
            executions_per_query=2,
        ),
        runtime_config=RuntimeConfig(workers=workers, executor_kind=executor_kind),
        result_store=store,
    )
    tasks = runner.tasks_for(METHODS, splits)
    print(f"running {len(tasks)} tasks on the {executor_kind} executor "
          f"(store: {store_dir}) ...")
    start = time.perf_counter()
    results = runner.run_tasks(tasks)
    print(f"first sweep: {time.perf_counter() - start:.1f} s")
    print(format_table([r.summary_row() for r in results], title="Sweep results"))

    # Every task must now be resumable from disk, whichever worker wrote it.
    pending = [
        task for task in tasks
        if not store.exists(runner.task_key(task), runner.task_fingerprint(task))
    ]
    assert not pending, f"store is missing {len(pending)} completed tasks"
    # Recompute detection must not rely on result values (deterministic timing
    # makes a re-run byte-identical) or file counts (a recompute overwrites
    # the same path): snapshot the stored files' write times instead.
    files_before = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert len(files_before) == len(tasks)

    start = time.perf_counter()
    rerun = runner.run_tasks(tasks)
    print(f"second sweep (resumed from store): {time.perf_counter() - start:.3f} s")
    files_after = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert files_after == files_before, "resume recomputed and re-wrote result files"
    assert [r.to_dict() for r in rerun] == [r.to_dict() for r in results], (
        "resumed results differ from the first sweep"
    )
    print(f"resume-skip verified: {len(tasks)} tasks served from the store")
    print()
    print(store_report(store, title="Report regenerated from the store alone"))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
