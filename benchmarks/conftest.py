"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper at a reduced,
laptop-friendly scale (the experiment index is the "Paper ↔ code crosswalk" of
docs/ARCHITECTURE.md).  Set the
environment variables ``REPRO_BENCH_SCALE`` (database scale factor) and
``REPRO_BENCH_FULL=1`` (full experiment grids) for larger runs.

The end-to-end benchmarks run through the experiment runtime: tasks fan out
over ``REPRO_BENCH_WORKERS`` workers (default 2) and results/artefacts are
persisted into a result store.  ``REPRO_BENCH_EXECUTOR`` picks the thread
pool (default) or ``serial``; multi-process sweeps are the distributed
executor's (``bench_runtime_parallel.py``).  Point ``REPRO_BENCH_STORE`` at a
directory to make sweeps resumable across invocations — completed (method,
split, seed) tasks are then skipped on re-run.
"""

from __future__ import annotations

import os

import pytest

from repro.config import RuntimeConfig
from repro.runtime.result_store import ResultStore

#: Reduced database scale used by default so the whole suite finishes quickly.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))

#: Whether to run the full experiment grids (all methods, 3 splits/sampling).
BENCH_FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Parallel workers used by the end-to-end experiment grids.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))

#: Executor kind of the benchmark grids ("thread" or "serial").
BENCH_EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "thread")


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_full() -> bool:
    return BENCH_FULL


@pytest.fixture(scope="session")
def bench_runtime() -> RuntimeConfig:
    """Runtime configuration of the benchmark grids (parallel fan-out)."""
    return RuntimeConfig(workers=max(BENCH_WORKERS, 1), executor_kind=BENCH_EXECUTOR)


@pytest.fixture(scope="session")
def result_store(tmp_path_factory) -> ResultStore:
    """Resumable result store shared by the benchmark session.

    Ephemeral by default; set ``REPRO_BENCH_STORE=/some/dir`` to persist
    results (and skip completed tasks) across benchmark invocations.
    """
    root = os.environ.get("REPRO_BENCH_STORE") or tmp_path_factory.mktemp("result-store")
    return ResultStore(root)
