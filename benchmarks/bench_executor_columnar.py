"""Benchmark: columnar vs row execution engine on the JOB end-to-end workload.

Both engines implement the same :class:`ExecutionProtocol` semantics and must
produce byte-identical result rows, cardinalities and simulated timings for
every plan (see docs/EXECUTOR.md); this benchmark asserts that equivalence on
the full JOB workload and records the wall-clock speedup of the columnar
engine.  The execution protocol per query mirrors the Figure 4 drivers: caches
dropped once, then ``RUNS_PER_QUERY`` repetitions (one cold start plus
hot-cache repeats).

Engine timings are interleaved across repetitions (row, columnar, row, ...) so
slow drift in machine load hits both engines equally; the reported speedup
uses the best repetition of each engine.  The result is saved both into the
session result store and as ``BENCH_executor_columnar.json`` at the repo root
(override the location with ``REPRO_BENCH_ENGINE_JSON``).

A second section runs LEFT/FULL outer joins and grouped aggregates (absent
from JOB itself) through the same cold+hot protocol, asserting per-repetition
byte-equivalence of rows, metrics and simulated timings across both engines.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.executor.engine import create_engine
from repro.experiments.common import job_context
from repro.optimizer.planner import Planner
from repro.sql.binder import bind_sql

#: Database scale of the engine comparison.  Deliberately *not* the generic
#: ``REPRO_BENCH_SCALE`` smoke scale: at tiny scales both engines finish in
#: fractions of a second and fixed per-operator Python overhead swamps the
#: difference; scale 1.0 is where the figure-4 workload (and the speedup
#: recorded in BENCH_executor_columnar.json) lives.
ENGINE_BENCH_SCALE = float(os.environ.get("REPRO_BENCH_ENGINE_SCALE", "1.0"))

#: Interleaved measurement repetitions per engine.
REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", "3"))

#: Executions per query: one cold start plus hot-cache repeats (Figure 4 protocol).
RUNS_PER_QUERY = 3

#: Where the JSON artefact is written (defaults to the repository root).
DEFAULT_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_executor_columnar.json"


def _run_workload(database, plans, kind: str):
    """Execute every planned query ``RUNS_PER_QUERY`` times on a fresh engine.

    Returns ``(elapsed_seconds, results)`` where ``results`` holds the final
    (hot-cache) :class:`ExecutionResult` per query.  The repetitions go through
    the engine's shared repeat loop — one data pass, ``RUNS_PER_QUERY`` charges
    — exactly as ``ExecutionProtocol.measure_plan`` runs them.  A fresh engine
    per call resets the timing model's seeded noise stream, so identical call
    sequences yield identical simulated timings across engines and repetitions.
    """
    engine = create_engine(database, database.config, kind=kind)
    results = []
    started = time.perf_counter()
    for query, plan in plans:
        database.drop_caches()
        *_, result = engine.runs(query.bound, plan, RUNS_PER_QUERY)
        results.append(result)
    return time.perf_counter() - started, results


def _assert_byte_identical(row_results, columnar_results, plans):
    """Every query must agree on rows, counts, metrics and simulated time."""
    for (query, _), row_res, col_res in zip(plans, row_results, columnar_results):
        name = query.query_id
        assert row_res.rows == col_res.rows, f"{name}: result rows differ"
        assert row_res.row_count == col_res.row_count, f"{name}: row_count differs"
        assert row_res.timed_out == col_res.timed_out, f"{name}: timeout flag differs"
        assert row_res.metrics.__dict__ == col_res.metrics.__dict__, (
            f"{name}: work profile differs"
        )
        assert row_res.execution_time_ms == col_res.execution_time_ms, (
            f"{name}: simulated timing differs"
        )


#: Outer-join / grouped-aggregate protocol section: the JOB workload is
#: inner-join only, so these hand-written queries over the same IMDB schema
#: exercise LEFT/FULL NULL extension and GROUP BY decoration under the same
#: cold+hot repetition protocol, asserting byte-equivalence per repetition.
OUTER_PROTOCOL_SQLS = (
    "SELECT COUNT(*) FROM title AS t LEFT JOIN movie_keyword AS mk ON t.id = mk.movie_id",
    "SELECT COUNT(*), COUNT(k.id) FROM movie_keyword AS mk "
    "FULL OUTER JOIN keyword AS k ON mk.keyword_id = k.id",
    "SELECT t.kind_id, COUNT(*), MIN(t.production_year) FROM title AS t "
    "JOIN movie_keyword AS mk ON t.id = mk.movie_id "
    "LEFT JOIN keyword AS k ON mk.keyword_id = k.id "
    "GROUP BY t.kind_id",
)


def test_outer_join_grouped_aggregate_protocol():
    """LEFT/FULL joins + GROUP BY through the Figure 4 protocol, both engines."""
    context = job_context(min(ENGINE_BENCH_SCALE, 0.1))
    database = context.database.with_config(context.database.config)
    planner = Planner(database)
    plans = [
        (bind_sql(sql, database.schema, name=f"outer_bench_{i}"), sql)
        for i, sql in enumerate(OUTER_PROTOCOL_SQLS)
    ]
    for query, sql in plans:
        plan = planner.plan(query)
        # Fresh engine per side resets the seeded timing noise stream, so the
        # repetition-by-repetition comparison below is exact.
        results = {}
        for kind in ("row", "columnar"):
            engine = create_engine(database, database.config, kind=kind)
            database.drop_caches()
            results[kind] = list(engine.runs(query, plan, RUNS_PER_QUERY))
        for rep, (row_res, col_res) in enumerate(
            zip(results["row"], results["columnar"])
        ):
            assert row_res.rows == col_res.rows, f"{sql} (rep {rep}): rows differ"
            assert row_res.metrics.__dict__ == col_res.metrics.__dict__, (
                f"{sql} (rep {rep}): work profile differs"
            )
            assert row_res.execution_time_ms == col_res.execution_time_ms, (
                f"{sql} (rep {rep}): simulated timing differs"
            )
        assert results["row"][-1].row_count > 0, f"{sql}: empty result"


def test_columnar_engine_speedup_on_job(benchmark, result_store):
    context = job_context(ENGINE_BENCH_SCALE)
    # Private buffer-pool view: the benchmark drops caches per query, which
    # must not perturb the registry-shared instance other tests may hold.
    database = context.database.with_config(context.database.config)
    planner = Planner(database)
    plans = [(query, planner.plan(query.bound)) for query in context.workload.queries]

    row_times: list[float] = []
    columnar_times: list[float] = []
    row_results = columnar_results = None
    for _ in range(REPS):
        elapsed, row_results = _run_workload(database, plans, "row")
        row_times.append(elapsed)
        elapsed, columnar_results = _run_workload(database, plans, "columnar")
        columnar_times.append(elapsed)
    _assert_byte_identical(row_results, columnar_results, plans)

    # Record the final columnar pass through pytest-benchmark's bookkeeping
    # too, so the suite-wide benchmark table includes this entry.
    benchmark.pedantic(
        _run_workload,
        args=(database, plans, "columnar"),
        iterations=1,
        rounds=1,
    )

    speedup_best = min(row_times) / max(min(columnar_times), 1e-9)
    speedup_median = statistics.median(row_times) / max(
        statistics.median(columnar_times), 1e-9
    )
    payload = {
        "benchmark": "figure4 JOB end-to-end execution: row vs columnar engine",
        "scale": ENGINE_BENCH_SCALE,
        "queries": len(plans),
        "runs_per_query": RUNS_PER_QUERY,
        "reps": REPS,
        "row_s": {
            "best": min(row_times),
            "median": statistics.median(row_times),
            "all": row_times,
        },
        "columnar_s": {
            "best": min(columnar_times),
            "median": statistics.median(columnar_times),
            "all": columnar_times,
        },
        "speedup_best": speedup_best,
        "speedup_median": speedup_median,
        "simulated_total_ms": sum(r.execution_time_ms for r in columnar_results),
        "byte_identical": True,
    }
    result_store.save_artifact("BENCH_executor_columnar", payload)
    json_path = Path(os.environ.get("REPRO_BENCH_ENGINE_JSON") or DEFAULT_JSON_PATH)
    json_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(
        f"JOB x{len(plans)} queries, {RUNS_PER_QUERY} runs each: "
        f"row best {min(row_times):.2f}s vs columnar best {min(columnar_times):.2f}s "
        f"-> {speedup_best:.2f}x (median {speedup_median:.2f}x)"
    )
    # Gate: at the default scale 1.0 the measured speedup is ~1.8x (the
    # committed BENCH_executor_columnar.json; ~2.2x when every repetition
    # paid its own data pass); the floor absorbs noisy shared CI runners.
    # When REPRO_BENCH_ENGINE_SCALE is dialed down for a quick local smoke the
    # gap shrinks toward per-operator overhead parity, so only require
    # "not slower".
    assert speedup_best >= (1.5 if ENGINE_BENCH_SCALE >= 1.0 else 0.9)
