"""Which public callables are wrapped for a traced run, and what they become.

Layers are the packages under ``src/repro``.  ``install`` puts a span around
every call that crosses into a layer; ``summarize`` turns the recorded spans
and counters into the per-layer metrics ``BENCHMARK.json`` declares.  A layer a
workload never enters reports 0 — that zero is the evidence that the workload
bypasses it.

Functions called hundreds of thousands of times per pass (``join_node``,
``join_rows``, ``access_pages``) get a call counter, not a span: a span per
call would cost more than the call.  Their time stays in the self time of the
span that called them.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.harness import Measured, declared_metrics, p50_or_zero, percentile
from perfbench.trace import Tracer, layer_of

#: Layers whose self time is reported as ``self_s.<layer>``; ``harness`` is the
#: benchmark's own driver loop.
LAYERS = (
    "sql", "optimizer", "executor", "storage", "core",
    "lqo", "ml", "encoding", "runtime", "harness",
)


def _observe_tokens(tracer: Tracer, tokens) -> None:
    tracer.add("sql.tokens_total", len(tokens))


def _observe_cache_get(tracer: Tracer, entry) -> None:
    tracer.add("runtime.plan_cache_misses" if entry is None else "runtime.plan_cache_hits")


def _observe_execution(tracer: Tracer, result) -> None:
    tracer.add("executor.operators_total", len(result.node_actual_rows))
    tracer.add("executor.rows_out_total", result.row_count)
    tracer.add("executor.timed_out", int(result.timed_out))
    tracer.add("storage.pages_read", result.metrics.seq_pages_read + result.metrics.random_pages_read)
    if result.node_actual_rows:
        tracer.peak("executor.peak_intermediate_rows", max(result.node_actual_rows.values()))


def _observe_page_access(tracer: Tracer, access) -> None:
    tracer.add("storage.buffer_hits", access.hits)
    tracer.add("storage.buffer_misses", access.misses)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries every workload shares."""
    from repro.core.execution_protocol import ExecutionProtocol
    from repro.executor.engine import ExecutionEngine
    from repro.optimizer.cardinality import CardinalityEstimator
    from repro.optimizer.cost_model import CostModel
    from repro.optimizer.enumeration import DPEnumerator
    from repro.optimizer.geqo import GeqoEnumerator
    from repro.optimizer.planner import Planner
    from repro.runtime.plan_cache import PlanCache
    from repro.sql import binder, lexer, parser
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.database import Database

    tracer.wrap(lexer, "tokenize", "sql.tokenize", observe=_observe_tokens)
    tracer.wrap(parser, "parse_select", "sql.parse_select")
    tracer.wrap(binder, "bind_query", "sql.bind_query")
    tracer.wrap(binder, "bind_sql", "sql.bind_sql")
    tracer.wrap(Planner, "plan_with_info", "optimizer.plan_with_info")
    tracer.wrap(DPEnumerator, "plan", "optimizer.dp")
    tracer.wrap(GeqoEnumerator, "plan", "optimizer.geqo")
    tracer.wrap(CostModel, "best_join", "optimizer.best_join")
    tracer.wrap(CostModel, "best_scan", "optimizer.best_scan")
    tracer.wrap(CostModel, "join_node", "optimizer.join_node_calls", count_only=True)
    tracer.wrap(CardinalityEstimator, "join_rows", "optimizer.join_rows_calls", count_only=True)
    tracer.wrap(PlanCache, "get", "runtime.plan_cache_get", observe=_observe_cache_get)
    tracer.wrap(ExecutionProtocol, "measure_plan", "core.measure_plan")
    tracer.wrap(ExecutionEngine, "execute", "executor.execute", observe=_observe_execution)
    tracer.wrap(Database, "drop_caches", "storage.drop_caches")
    tracer.wrap(
        BufferPool, "access_pages", "storage.access_pages_calls",
        observe=_observe_page_access, count_only=True,
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _executions(tracer: Tracer) -> tuple[list[float], list[float], dict[int, float]]:
    """Cold and hot ``execute`` durations, and execute time per parent span.

    An execution is cold when a ``drop_caches`` ran under the same parent span
    since that parent's previous execution (the protocol's first of three).
    """
    cold: list[float] = []
    hot: list[float] = []
    per_parent: dict[int, float] = defaultdict(float)
    dropped: set[int] = set()
    for _, parent, _, name, start, end in sorted(tracer.spans, key=lambda span: span[4]):
        if name == "storage.drop_caches":
            dropped.add(parent)
        elif name == "executor.execute":
            per_parent[parent] += end - start
            if parent in dropped:
                dropped.discard(parent)
                cold.append(end - start)
            else:
                hot.append(end - start)
    return cold, hot, per_parent


def summarize(tracer: Tracer, traced: Measured) -> dict[str, float]:
    """Every declared per-layer metric, 0 where the run never entered the layer."""
    _, per_layer_units = declared_metrics()
    metrics: dict[str, float] = dict.fromkeys(per_layer_units, 0.0)
    counters = tracer.counters
    for name in counters:
        if name in metrics:
            metrics[name] = counters[name]
    for name, value in tracer.peaks.items():
        metrics[name] = value

    durations = tracer.durations_by_name()

    def micros(span_name: str) -> float:
        return p50_or_zero(durations[span_name], 1e6)

    def millis(span_name: str) -> float:
        return p50_or_zero(durations[span_name], 1e3)

    self_by_name = tracer.self_time_by_name()
    self_by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in self_by_name.items():
        self_by_layer[layer_of(name)] += seconds
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_by_layer.get(layer, 0.0)
    metrics["self_time_coverage"] = _ratio(sum(self_by_name.values()), traced.total_s)

    metrics["sql.tokenize_us_p50"] = micros("sql.tokenize")
    metrics["sql.parse_us_p50"] = micros("sql.parse_select")
    metrics["sql.bind_us_p50"] = micros("sql.bind_query")
    metrics["sql.bind_sql_us_p50"] = micros("sql.bind_sql")

    plans = durations["optimizer.plan_with_info"]
    metrics["optimizer.plan_calls"] = len(plans)
    metrics["optimizer.plan_ms_p50"] = p50_or_zero(plans, 1e3)
    metrics["optimizer.plan_ms_p90"] = percentile(plans, 90.0) * 1e3 if plans else 0.0
    metrics["optimizer.plan_s_total"] = sum(plans)
    metrics["optimizer.plan_share"] = _ratio(sum(plans), traced.total_s)
    metrics["optimizer.dp_ms_p50"] = millis("optimizer.dp")
    metrics["optimizer.geqo_ms_p50"] = millis("optimizer.geqo")
    metrics["optimizer.enumerate_self_s"] = sum(
        self_by_name.get(name, 0.0) for name in ("optimizer.dp", "optimizer.geqo")
    )
    metrics["optimizer.cost_self_s"] = sum(
        self_by_name.get(name, 0.0) for name in ("optimizer.best_join", "optimizer.best_scan")
    )
    metrics["optimizer.best_join_calls"] = len(durations["optimizer.best_join"])
    metrics["optimizer.best_scan_calls"] = len(durations["optimizer.best_scan"])
    metrics["optimizer.winners_per_candidate"] = _ratio(
        metrics["optimizer.best_join_calls"], metrics["optimizer.join_node_calls"]
    )

    metrics["runtime.plan_cache_get_us_p50"] = micros("runtime.plan_cache_get")
    metrics["runtime.plan_cache_hit_rate"] = _ratio(
        metrics["runtime.plan_cache_hits"],
        metrics["runtime.plan_cache_hits"] + metrics["runtime.plan_cache_misses"],
    )

    metrics["plans.pickle_us_p50"] = micros("plans.pickle")

    cold, hot, execute_per_parent = _executions(tracer)
    executions = cold + hot
    metrics["executor.execute_calls"] = len(executions)
    metrics["executor.execute_ms_p50"] = p50_or_zero(executions, 1e3)
    metrics["executor.execute_ms_p99"] = percentile(executions, 99.0) * 1e3 if executions else 0.0
    metrics["executor.cold_ms_p50"] = p50_or_zero(cold, 1e3)
    metrics["executor.hot_ms_p50"] = p50_or_zero(hot, 1e3)
    metrics["executor.execute_s_total"] = sum(executions)
    metrics["executor.us_per_operator"] = _ratio(
        sum(executions) * 1e6, metrics["executor.operators_total"]
    )

    metrics["storage.drop_caches_us_p50"] = micros("storage.drop_caches")
    metrics["storage.buffer_hit_rate"] = _ratio(
        metrics["storage.buffer_hits"],
        metrics["storage.buffer_hits"] + metrics["storage.buffer_misses"],
    )

    metrics["core.protocol_overhead_us_p50"] = p50_or_zero(
        [
            (end - start) - execute_per_parent.get(span_id, 0.0)
            for span_id, _, _, name, start, end in tracer.spans
            if name == "core.measure_plan"
        ],
        1e6,
    )
    return metrics
