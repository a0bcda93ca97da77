"""Benchmark harness configuration.

The benchmarks here time the execution engines, the experiment runtime and
the plan server; the paper's figures and tables are ``python -m
repro.experiments`` (``make figures``), checked by ``tests/test_figures.py``.
``REPRO_BENCH_SCALE`` sets the database scale factor.

The runtime benchmarks run through the experiment runtime and persist
results/artefacts into a result store.  ``REPRO_BENCH_EXECUTOR`` picks the
executor kind: ``serial`` (default) or ``distributed``, which fans the tasks
out over ``REPRO_BENCH_WORKERS`` worker processes (default 2;
``bench_runtime_parallel.py`` runs that executor on its own).  Point
``REPRO_BENCH_STORE`` at a directory to make sweeps resumable across
invocations — completed (method, split, seed) tasks are then skipped on
re-run.
"""

from __future__ import annotations

import os

import pytest

from repro.config import RuntimeConfig
from repro.runtime.result_store import ResultStore

#: Reduced database scale used by default so the whole suite finishes quickly.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))

#: Worker processes of the end-to-end experiment grids under the distributed executor.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))

#: Executor kind of the benchmark grids ("serial" or "distributed").
BENCH_EXECUTOR = os.environ.get("REPRO_BENCH_EXECUTOR", "serial")


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


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
