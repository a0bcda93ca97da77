"""``fig4_sweep_tcp``: the paper's figure-4 cell grid through the distributed runtime.

``ParallelExperimentRunner.run_comparison`` over (postgres, hybridqo, neo,
balsa) on one random split of JOB at scale 0.15, with two worker processes
behind the HMAC-signed TCP queue.  It is the workload the repository exists
for: the planner is used differently (hinted, forced-order and cache-hit
planning), ``lqo``/``ml``/``encoding`` carry weight, and results cross the
queue, signed frames, result upload and the store.

The split and the experiment seed are fixed — the figure-4 protocol fixes its
splits across methods, and simulated time must repeat exactly — so ``--seed``
only keys the per-run queue secret.  The split is cut to 64 training and 16
test queries so one sweep lasts ~12 s; neo and balsa grow faster than linearly
with the training set.

The traced run executes the same cells in this process (``executor_kind =
"serial"``) so the wrappers see them; its store must be byte-identical to the
TCP sweep's store.
"""

from __future__ import annotations

import math
import pickle
import shutil
import time
from dataclasses import replace
from pathlib import Path

from perfbench.harness import Measured, Workload, p50_or_zero, run_passes
from perfbench.trace import Tracer
from perfbench.workloads.common import frame_metrics, timed_build
from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.splits import SplitSampling, generate_splits
from repro.errors import ReproError
from repro.experiments.common import distributed_runtime, job_spec
from repro.lqo.base import LQOEnvironment
from repro.lqo.registry import method_info
from repro.ml.nn import MLPRegressor, PairwiseRanker
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import ResultStore, ShardedResultStore
from repro.runtime.workqueue import ResultUpload
from repro.storage.registry import get_process_registry
from repro.workloads import build_job_workload

METHODS = ("postgres", "hybridqo", "neo", "balsa")
TRAIN_QUERIES, TEST_QUERIES = 64, 16
WORKERS = 2
SHARDS = 4
#: Seconds between progress snapshots; the resolution of ``runtime.first_claim_s``.
PROGRESS_INTERVAL_S = 0.1


def result_files(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every task-result file of the store at ``root``."""
    store = ShardedResultStore(root, shard_count=SHARDS)
    return {str(path.relative_to(root)): path.read_bytes() for path in store.completed_files()}


class Fig4SweepTcp(Workload):
    """Four figure-4 cells over the authenticated TCP queue, whole sweeps."""

    name = "fig4_sweep_tcp"

    def setup(self) -> None:
        """Build the database, bind JOB and cut the fixed split."""
        self.setup_layers.clear()
        self.spec = job_spec(0.1 if self.smoke else 0.15)
        timed_build(self.spec, self.setup_layers)
        # The runners resolve the spec through the process registry.
        database = get_process_registry().get(self.spec)
        started = time.perf_counter()
        self.workload = build_job_workload(database.schema)
        bound = time.perf_counter()
        split = generate_splits(self.workload, SplitSampling.RANDOM, n_splits=1, base_seed=0)[0]
        self.setup_layers["workloads.bind_workload_s"] = bound - started
        self.setup_layers["core.split_s"] = time.perf_counter() - bound
        train, test = (8, 3) if self.smoke else (TRAIN_QUERIES, TEST_QUERIES)
        self.split = replace(split, train_ids=split.train_ids[:train], test_ids=split.test_ids[:test])
        self.methods = METHODS[:1] if self.smoke else METHODS
        self.secret = f"perfbench-{self.seed}"
        self.stores: dict[str, Path] = {}

    # ------------------------------------------------------------------ TCP sweep
    def _tcp_sweep(self, index: int) -> dict:
        """One distributed sweep into a fresh store; returns what was observed."""
        store_dir = self.scratch / f"tcp-{index}"
        shutil.rmtree(store_dir, ignore_errors=True)
        snapshots: list = []
        runner = ParallelExperimentRunner(
            self.spec,
            self.workload,
            experiment_config=ExperimentConfig(seed=0),
            runtime_config=distributed_runtime(
                store_dir,
                workers=WORKERS,
                shard_count=SHARDS,
                queue_url="tcp://127.0.0.1:0",
                queue_secret=self.secret,
                progress_interval_s=PROGRESS_INTERVAL_S,
            ),
            progress_callback=lambda snapshot: snapshots.append((time.perf_counter(), snapshot)),
        )
        results = []
        started = time.perf_counter()
        try:
            results = runner.run_comparison(self.methods, [self.split])
        except (ReproError, OSError, MemoryError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = ""
        finally:
            wall_s = time.perf_counter() - started
            for proc in runner._distributed_procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        first = snapshots[0] if snapshots else None
        claimed = [at for at, snapshot in snapshots if snapshot.claimed or snapshot.done]
        return {
            "store": store_dir,
            "error": error,
            "wall_s": wall_s,
            "results": results,
            "cells_seen_done": max((snapshot.done for _, snapshot in snapshots), default=0),
            "failed_cells": len(self.methods) - len(results) if error else 0,
            # The reporter starts once every worker process has been spawned.
            "worker_spawn_s": first[0] - first[1].elapsed_s - started if first else 0.0,
            "first_claim_s": claimed[0] - started if claimed else 0.0,
            "stolen": runner._distributed_stolen,
            "requeued": runner._distributed_requeued,
            "failed_tasks_seen": max((snapshot.failed for _, snapshot in snapshots), default=0),
        }

    # ------------------------------------------------------------------ serial cells
    def _serial_cells(
        self, label: str, tracer: Tracer | None, methods: tuple[str, ...] | None = None
    ) -> Measured:
        """The same cells one after another in this process, into a sharded store."""
        methods = methods or self.methods
        store_dir = self.scratch / f"serial-{label}"
        shutil.rmtree(store_dir, ignore_errors=True)
        self.stores[label] = store_dir
        runner = ParallelExperimentRunner(
            self.spec,
            self.workload,
            experiment_config=ExperimentConfig(seed=0),
            runtime_config=RuntimeConfig(
                workers=1, executor_kind="serial", store_dir=str(store_dir), shard_count=SHARDS
            ),
        )
        walls: dict[str, float] = {}
        for index, method in enumerate(methods):
            started = time.perf_counter()
            if tracer is None:
                runner.run_grid((method,), [self.split])
            else:
                with tracer.span("harness.cell", request=index + 1):
                    runner.run_grid((method,), [self.split])
            walls[method] = time.perf_counter() - started
        # Read every result back as the coordinator does at the end of a sweep.
        tasks = runner.tasks_for(methods, [self.split])
        results = [
            runner.result_store.load(runner.task_key(task), runner.task_fingerprint(task))
            for task in tasks
        ]
        uploads = [
            ResultUpload(runner.task_key(task), runner.task_fingerprint(task), result.to_dict())
            for task, result in zip(tasks, results)
        ]
        return Measured(
            latencies_ms=[wall * 1000.0 for wall in walls.values()],
            keys=list(walls),
            busy_s=sum(walls.values()),
            total_s=sum(walls.values()),
            attempted=len(tasks),
            failed=0,
            sim_ms=math.fsum(result.total_end_to_end_ms for result in results),
            details={"walls": walls, "uploads": uploads},
        )

    # ------------------------------------------------------------------ harness hooks
    def measure(self, seconds: float, tracer: Tracer | None) -> Measured:
        """Untraced: whole TCP sweeps, the fastest reported.  Traced: the cells in-process."""
        if tracer is not None:
            return self._serial_cells("traced", tracer)
        sweeps = run_passes(self._tcp_sweep, seconds)
        # A sweep that broke off early is not the fastest one.
        fastest = min(sweeps, key=lambda sweep: (bool(sweep["error"]), sweep["wall_s"]))
        self.stores["tcp"] = fastest["store"]
        return Measured(
            # One latency per sweep (a figure needs all its cells), throughput in cells.
            latencies_ms=[fastest["wall_s"] * 1000.0],
            keys=["sweep"],
            busy_s=fastest["wall_s"],
            total_s=sum(sweep["wall_s"] for sweep in sweeps),
            attempted=len(sweeps) * len(self.methods),
            failed=sum(sweep["failed_cells"] for sweep in sweeps),
            sim_ms=math.fsum(result.total_end_to_end_ms for result in fastest["results"]),
            details={"sweeps": sweeps, "fastest": fastest},
            completed=len(fastest["results"]),
        )

    def trace_reference(self, untraced: Measured) -> Measured:
        """The cells in-process without wrappers: what the traced run is compared with."""
        reference = self._serial_cells("untraced", None)
        self.reference_walls = reference.details["walls"]
        return reference

    def install(self, tracer: Tracer) -> None:
        """The shared wrappers plus the sweep's own layers: core, lqo, ml, encoding, store."""
        super().install(tracer)
        for attr in ("fit", "plan_query"):
            owners = {
                next(cls for cls in method_info(method).cls.__mro__ if attr in cls.__dict__)
                for method in self.methods
            }
            for owner in owners:
                tracer.wrap(owner, attr, f"lqo.{attr}")
        tracer.wrap(LQOEnvironment, "execute_plan", "lqo.execute_plan")
        tracer.wrap(LQOEnvironment, "plan_vector", "encoding.plan_vector")
        tracer.wrap(MLPRegressor, "fit", "ml.fit")
        tracer.wrap(PairwiseRanker, "fit_pairs", "ml.fit")
        tracer.wrap(MLPRegressor, "predict", "ml.predict")
        tracer.wrap(PairwiseRanker, "score", "ml.predict")
        tracer.wrap(ExperimentRunner, "run_method", "core.run_method")
        tracer.wrap(ResultStore, "save_raw", "runtime.store_save")
        tracer.wrap(ResultStore, "load", "runtime.store_load")

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Per-method lqo time, ml/encoding totals, store and sweep-runtime metrics."""
        durations = tracer.durations_by_name()
        own = tracer.self_times()
        metrics: dict[str, float] = {
            "ml.fit_s": sum(durations["ml.fit"]),
            "ml.fit_calls": len(durations["ml.fit"]),
            "ml.predict_s": sum(durations["ml.predict"]),
            "ml.predict_calls": len(durations["ml.predict"]),
            "encoding.plan_vector_s": sum(durations["encoding.plan_vector"]),
            "encoding.plan_vector_calls": len(durations["encoding.plan_vector"]),
            "runtime.store_save_ms_p50": p50_or_zero(durations["runtime.store_save"], 1e3),
            "runtime.store_load_ms_p50": p50_or_zero(durations["runtime.store_load"], 1e3),
            "core.cell_other_s": sum(
                own[span_id] for span_id, _, _, name, _, _ in tracer.spans if name == "core.run_method"
            ),
        }
        for index, method in enumerate(self.methods):
            of_cell = [
                (name, end - start)
                for _, _, request, name, start, end in tracer.spans
                if request == index + 1
            ]
            metrics[f"lqo.fit_s.{method}"] = sum(d for name, d in of_cell if name == "lqo.fit")
            metrics[f"lqo.plan_query_ms_p50.{method}"] = p50_or_zero(
                [d for name, d in of_cell if name == "lqo.plan_query"], 1e3
            )
            metrics[f"runtime.cell_wall_s.{method}"] = traced.details["walls"][method]

        sweep = untraced.details["fastest"]
        serial_s = sum(self.reference_walls.values())
        metrics.update(
            {
                "runtime.parallel_efficiency": serial_s / (WORKERS * sweep["wall_s"]),
                "runtime.worker_spawn_s": sweep["worker_spawn_s"],
                "runtime.first_claim_s": sweep["first_claim_s"],
                "runtime.stolen_tasks": sweep["stolen"],
                "runtime.requeued_tasks": sweep["requeued"],
                "runtime.task_retries": sweep["failed_tasks_seen"],
                "runtime.store_bytes": sum(len(blob) for blob in result_files(sweep["store"]).values()),
            }
        )
        uploads = traced.details["uploads"]
        metrics["runtime.upload_bytes_p50"] = p50_or_zero(
            [len(pickle.dumps(upload, protocol=pickle.HIGHEST_PROTOCOL)) for upload in uploads]
        )
        metrics.update(frame_metrics(tracer, uploads, self.secret))
        return metrics

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Every cell finished once, untouched by retries, with the serial run's bytes."""
        problems = []
        for index, sweep in enumerate(untraced.details["sweeps"]):
            if sweep["error"]:
                problems.append(f"sweep {index} failed: {sweep['error']}")
            if sweep["requeued"] or sweep["failed_tasks_seen"]:
                problems.append(f"sweep {index} re-queued or retried tasks")
            if sweep["cells_seen_done"] != len(self.methods):
                problems.append(f"sweep {index} reported {sweep['cells_seen_done']} finished cells")
            for result in sweep["results"]:
                if len(result.timings) != len(self.split.test_ids):
                    problems.append(f"sweep {index}: {result.method} timed {len(result.timings)} queries")
            if result_files(sweep["store"]) != result_files(self.stores["tcp"]):
                problems.append(f"the store of sweep {index} differs from the fastest sweep's")
        if traced is None:
            # Untraced runs afford one oracle cell: the postgres cell in-process.
            self._serial_cells("oracle", None, METHODS[:1])
        tcp_files = result_files(self.stores["tcp"])
        for label, store_dir in self.stores.items():
            if label == "tcp":
                continue
            serial_files = result_files(store_dir)
            if not serial_files:
                problems.append(f"the {label} in-process run stored nothing")
            for path, blob in serial_files.items():
                if tcp_files.get(path) != blob:
                    problems.append(f"{path} differs between the TCP sweep and the {label} in-process run")
        return problems
