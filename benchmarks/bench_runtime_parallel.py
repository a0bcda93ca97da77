"""Benchmark RT: the experiment runtime — plan caching, fan-out, dispatch, resume.

Expected shape: a warm :class:`PlanCache` serves repeated planning requests at
least 2x faster than planning from scratch (in practice orders of magnitude),
the parallel grid produces results identical to serial execution, a resumed
sweep recomputes nothing, a distributed task ships a constant-size
:class:`DatabaseSpec` payload — per-task pickling cost does not grow with
database scale — and the distributed work-queue executor stays byte-identical
to serial while writing a sharded store that merges flat.
"""

import json
import pickle
import time

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.splits import SplitSampling, generate_split
from repro.experiments.common import distributed_runtime, job_context
from repro.optimizer.planner import Planner
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.plan_cache import PlanCache
from repro.runtime.result_store import ResultStore

#: Number of repeated planning passes over the workload (ablation-style reuse).
PLANNING_PASSES = 5

#: Spec dispatch must stay below this pickled payload size at any scale.
MAX_PAYLOAD_BYTES = 10 * 1024


def test_plan_cache_speedup_on_repeated_planning(benchmark, bench_scale):
    """A warm plan cache must make repeated planning >= 2x faster."""
    context = job_context(bench_scale)
    queries = [q.bound for q in context.workload.queries]

    def plan_all(planner: Planner) -> float:
        start = time.perf_counter()
        for bound in queries:
            planner.plan_with_info(bound)
        return time.perf_counter() - start

    # Cold baseline: every pass pays full planning (cache disabled).
    uncached_planner = Planner(context.database, plan_cache=PlanCache(max_entries=0))
    cold_total = sum(plan_all(uncached_planner) for _ in range(PLANNING_PASSES))

    # Cached: the first pass fills the cache, later passes are near-free.
    cached_planner = Planner(context.database, plan_cache=PlanCache(max_entries=4096))
    warm_total = benchmark.pedantic(
        lambda: sum(plan_all(cached_planner) for _ in range(PLANNING_PASSES)),
        iterations=1,
        rounds=1,
    )

    stats = cached_planner.plan_cache.stats
    assert stats.hits >= len(queries) * (PLANNING_PASSES - 1)
    speedup = cold_total / max(warm_total, 1e-9)
    print()
    print(
        f"plan cache: cold {cold_total * 1000:.1f} ms vs warm {warm_total * 1000:.1f} ms "
        f"-> {speedup:.1f}x speedup, {cached_planner.plan_cache.describe()}"
    )
    assert speedup >= 2.0


def test_parallel_grid_smoke_and_resume(benchmark, bench_scale, bench_runtime, tmp_path):
    """Fan the reduced grid out over workers, then resume it from the store.

    Resume is asserted via the stored files' write times: a recompute would
    rewrite the same paths with the same bytes.
    """
    context = job_context(bench_scale)
    split = generate_split(context.workload, SplitSampling.RANDOM, seed=0)
    store = ResultStore(tmp_path / "rt-store")
    config = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})
    methods = ("postgres", "bao", "hybridqo")

    def sweep() -> list:
        runner = ParallelExperimentRunner(
            context.dispatch_source,
            context.workload,
            experiment_config=config,
            runtime_config=RuntimeConfig(
                workers=max(bench_runtime.workers, 2),
                executor_kind=bench_runtime.executor_kind,
            ),
            result_store=store,
        )
        return runner.run_grid(methods, [split])

    first = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert [r.method for r in first] == list(methods)
    files_before = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert len(files_before) == len(methods)

    resume_start = time.perf_counter()
    second = sweep()
    resume_elapsed = time.perf_counter() - resume_start
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
    files_after = {path: path.stat().st_mtime_ns for path in store.completed_files()}
    assert files_after == files_before  # nothing was recomputed or re-written
    print()
    print(f"resume of {len(methods)}-task grid took {resume_elapsed * 1000:.1f} ms; {store.describe()}")


def test_spec_dispatch_payload_constant_in_scale(benchmark, bench_scale):
    """Distributed dispatch ships the spec: payload size must not grow with scale.

    Pickling the whole database per task would cost time linear in table
    bytes; spec dispatch pickles a :class:`SpecTaskPayload` of a few hundred
    bytes regardless of scale.  Measured here at the bench scale and at 4x.
    """
    split_ids = dict(train_ids=("1a", "2a", "3a"), test_ids=("1b", "2b"))
    payload_bytes: dict[float, int] = {}
    database_bytes: dict[float, int] = {}

    def measure() -> dict[float, int]:
        from repro.core.splits import DatasetSplit

        for scale in (bench_scale, 4 * bench_scale):
            context = job_context(scale)
            runner = ParallelExperimentRunner(context.dispatch_source, context.workload)
            assert runner.uses_spec_dispatch
            split = DatasetSplit(context.workload.name, SplitSampling.RANDOM, 0, **split_ids)
            task = runner.tasks_for(("postgres",), [split])[0]
            payload_bytes[scale] = len(pickle.dumps(runner.spec_payload(task)))
            database_bytes[scale] = len(pickle.dumps(context.database))
        return payload_bytes

    benchmark.pedantic(measure, iterations=1, rounds=1)
    small, large = sorted(payload_bytes)
    print()
    for scale in (small, large):
        ratio = database_bytes[scale] / max(payload_bytes[scale], 1)
        print(
            f"scale {scale:g}: spec payload {payload_bytes[scale]} B vs database pickle "
            f"{database_bytes[scale] / 1e6:.1f} MB ({ratio:,.0f}x smaller)"
        )
    assert payload_bytes[small] < MAX_PAYLOAD_BYTES
    assert payload_bytes[large] < MAX_PAYLOAD_BYTES
    # Constant in scale: quadrupling the database must not grow the payload.
    assert payload_bytes[large] == payload_bytes[small]
    # The database pickle it replaces *does* grow with scale.
    assert database_bytes[large] > database_bytes[small]


def test_distributed_workqueue_equivalent_to_serial(benchmark, bench_scale, tmp_path):
    """The work-queue executor (2 local worker processes, sharded store) must
    stay byte-identical to serial, and the shards must merge into a flat
    store from which every task loads under its context fingerprint."""
    context = job_context(bench_scale)
    split = generate_split(context.workload, SplitSampling.RANDOM, seed=0)
    config = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})
    methods = ("postgres", "bao")

    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=config,
        runtime_config=distributed_runtime(tmp_path / "dist-store", workers=2, shard_count=4),
    )
    distributed = benchmark.pedantic(
        lambda: runner.run_grid(methods, [split]), iterations=1, rounds=1
    )
    serial = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=config,
        runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
    ).run_grid(methods, [split])
    a = [json.dumps(r.to_dict(), sort_keys=True) for r in distributed]
    b = [json.dumps(r.to_dict(), sort_keys=True) for r in serial]
    assert a == b

    store = runner.result_store
    assert store.shard_count == 4
    merged = store.merge(tmp_path / "merged")
    for task in runner.tasks_for(methods, [split]):
        merged.load(runner.task_key(task), runner.task_fingerprint(task))
    print()
    print(f"distributed grid of {len(a)} tasks byte-identical to serial; {store.describe()}")


def test_distributed_secured_tcp_with_progress_telemetry(benchmark, bench_scale, tmp_path, monkeypatch):
    """An HMAC-authenticated tcp:// sweep with live progress telemetry:
    byte-identical to serial, at least one snapshot emitted, and the
    telemetry overhead rides inside the measured sweep."""
    monkeypatch.setenv("REPRO_QUEUE_SECRET", "bench-progress-secret")
    context = job_context(bench_scale)
    split = generate_split(context.workload, SplitSampling.RANDOM, seed=0)
    config = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})
    methods = ("postgres", "bao")
    snapshots: list = []

    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=config,
        runtime_config=distributed_runtime(
            tmp_path / "tcp-store",
            workers=2,
            shard_count=4,
            queue_url="tcp://127.0.0.1:0",
            progress_interval_s=0.5,
        ),
        progress_callback=snapshots.append,
    )
    distributed = benchmark.pedantic(
        lambda: runner.run_grid(methods, [split]), iterations=1, rounds=1
    )
    serial = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=config,
        runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
    ).run_grid(methods, [split])
    a = [json.dumps(r.to_dict(), sort_keys=True) for r in distributed]
    b = [json.dumps(r.to_dict(), sort_keys=True) for r in serial]
    assert a == b
    assert snapshots, "no progress snapshot was emitted"
    final = snapshots[-1]
    assert final.done == final.total == len(a)
    json.loads(final.to_json())
    print()
    print(f"secured tcp sweep of {len(a)} tasks byte-identical to serial; "
          f"{len(snapshots)} snapshot(s); "
          f"final: {final.describe()}")
