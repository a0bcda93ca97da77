"""The paper's figures and tables as data: one :data:`FIGURES` entry per id.

Each :class:`Figure` holds a title, a ``run(scale, runtime_config, store,
**grid)`` that computes the result, and a ``rows`` function that turns the
result into table rows plus a small summary dict (what the paper reads off
the figure: Figure 2's R², Figure 7's 1st → 2nd drop, the best method per
split).  :func:`run_figures` runs any subset, prints every table and writes
one JSON document; ``python -m repro.experiments`` is its command line and
``make figures`` writes the committed ``BENCH_figures.json``.

The grid figures of one invocation share one result store, so Figure 6
resumes the Figure 4 and 5 cells instead of running them again.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.config import RuntimeConfig
from repro.core.report import format_key_values, format_table
from repro.encoding.featurizers import table1_rows
from repro.experiments import (
    figure2,
    figure3,
    figure4,
    figure6,
    figure7,
    s83_covariate_shift,
    s84_scans,
    s85_geqo,
    s87_plan_types,
    table2,
)
from repro.experiments.common import (
    DEFAULT_SCALE,
    distributed_runtime,
    job_context,
    stack_context,
)
from repro.runtime.result_store import ResultStore

Rows = tuple[list[dict[str, object]], dict[str, object]]


@dataclass(frozen=True)
class Figure:
    """One figure or table: how to compute it and how to read it."""

    title: str
    run: Callable[..., Any]
    rows: Callable[[Any], Rows]


def _scaled(driver_run: Callable[..., Any]) -> Callable[..., Any]:
    """A driver ``run(scale, **grid)`` that needs neither runtime nor store."""
    return lambda scale, runtime_config, store, **grid: driver_run(scale, **grid)


def _static(rows: Callable[[], list[dict[str, object]]]) -> Callable[..., Any]:
    """A table of constants: no database, no grid."""
    return lambda scale, runtime_config, store: rows()


def _end_to_end(context_factory: Callable[..., Any]) -> Callable[..., Any]:
    """Figures 4 and 5: every (method, split) cell through the runtime."""

    def run(scale, runtime_config, store, **grid) -> figure4.EndToEndResult:
        return figure4.run_for_context(
            context_factory(scale), runtime_config=runtime_config, result_store=store, **grid
        )

    return run


def _end_to_end_rows(result: figure4.EndToEndResult) -> Rows:
    summary: dict[str, object] = {
        f"best[{split}]": method for split, method in result.best_method_per_split().items()
    }
    summary["simulated_total_ms"] = sum(run.total_end_to_end_ms for run in result.runs)
    return result.rows(), summary


def _figure6(scale, runtime_config, store, **grid) -> list[figure4.EndToEndResult]:
    return [FIGURES[f].run(scale, runtime_config, store, **grid) for f in ("figure4", "figure5")]


def _figure6_rows(results: list[figure4.EndToEndResult]) -> Rows:
    points = figure6.points_from_results(results)
    rows: list[dict[str, object]] = [
        {
            "method": p.method,
            "workload": p.workload,
            "split": p.split,
            "training_time_s": round(p.training_time_s, 2),
            "workload_runtime_ms": round(p.workload_runtime_ms, 1),
        }
        for p in points
    ]
    return rows, figure6.correlation_summary(points)


def _figure2_rows(result: figure2.Figure2Result) -> Rows:
    regression = result.regression
    return result.points, {
        "slope": regression.slope,
        "intercept": regression.intercept,
        "r_squared": regression.r_squared,
        "n": regression.n,
    }


def _figure3_rows(result) -> Rows:
    workload, splits = result
    test_sets = {f"test_set[{name}]": ", ".join(s.test_ids) for name, s in splits.items()}
    return figure3.assignment_rows(workload, splits), test_sets


def _figure7_rows(result: figure7.Figure7Result) -> Rows:
    rows: list[dict[str, object]] = [
        {"k": k, **{key: round(value, 4) for key, value in stats.items()}}
        for k, stats in result.aggregated.items()
    ]
    return rows, {"mean_drop_1st_2nd": result.mean_drop(1), "mean_drop_2nd_3rd": result.mean_drop(2)}


def _s83_rows(result) -> Rows:
    def listed(factors, digits):
        return ", ".join(f"{qid} ({factor:.{digits}f}x)" for qid, factor in factors)

    return s83_covariate_shift.rows(result), {
        "largest_regressions": listed(result.top_regressions(3), 1),
        "largest_improvements": listed(result.top_improvements(3), 2),
    }


def _ablation_rows(driver_rows: Callable[[Any], list[dict[str, object]]]) -> Callable[[Any], Rows]:
    """Sections 8.4 and 8.5: per-query outcomes, counts and the extremes."""

    def rows(result) -> Rows:
        return driver_rows(result), {
            "affected_queries": len(result.affected_queries(threshold_ms=0.25)),
            "significant_queries": len(result.significant_queries(threshold_ms=0.25)),
            "top_speedups": ", ".join(
                f"{o.query_id} ({o.speedup_factor:.1f}x)" for o in result.top_speedups(3)
            ),
            "top_slowdowns": ", ".join(
                f"{o.query_id} ({o.slowdown_factor:.1f}x)" for o in result.top_slowdowns(3)
            ),
        }

    return rows


def _s87_rows(result) -> Rows:
    counts = sorted(result.shape_counts().items())
    return [{"shape": s, "plans": n} for s, n in counts], s87_plan_types.summary(result)


#: Every figure, table and section study of the paper.  ``figure6`` comes after
#: ``figure4`` and ``figure5``, so a run of all ids resumes their cells.
FIGURES: dict[str, Figure] = {
    "figure2": Figure(
        "Figure 2: execution time per number of joins (PostgreSQL on JOB)",
        _scaled(figure2.run),
        _figure2_rows,
    ),
    "figure3": Figure(
        "Figure 3: dataset split sampling types (JOB)", _scaled(figure3.run), _figure3_rows
    ),
    "figure4": Figure(
        "Figure 4: per-method timing decomposition on JOB test sets",
        _end_to_end(job_context),
        _end_to_end_rows,
    ),
    "figure5": Figure(
        "Figure 5: per-method timing decomposition on STACK test sets",
        _end_to_end(stack_context),
        _end_to_end_rows,
    ),
    "figure6": Figure(
        "Figure 6: training time vs combined workload runtime", _figure6, _figure6_rows
    ),
    "figure7": Figure(
        "Figure 7: normalized execution-time difference between successive runs",
        _scaled(figure7.run),
        _figure7_rows,
    ),
    "table1": Figure(
        "Table 1: Main encoding components of LQOs", _static(table1_rows), lambda r: (r, {})
    ),
    "table2": Figure(
        "Table 2: PostgreSQL configurations (database tuning parameters)",
        _static(table2.run),
        lambda r: (r, {}),
    ),
    "s83": Figure(
        "Section 8.3: covariate shift — Bao-Full vs Bao-50 on the full IMDB",
        _scaled(s83_covariate_shift.run),
        _s83_rows,
    ),
    "s84": Figure(
        "Section 8.4: disabling bitmap and tid scans",
        _scaled(s84_scans.run),
        _ablation_rows(s84_scans.rows),
    ),
    "s85": Figure(
        "Section 8.5: disabling the genetic query optimizer",
        _scaled(s85_geqo.run),
        _ablation_rows(s85_geqo.rows),
    ),
    "s87": Figure(
        "Section 8.7: enumerated plan shapes (JOB, <= 5 joins)",
        _scaled(s87_plan_types.run),
        _s87_rows,
    ),
}


def render(figure: Figure, rows: list[dict[str, object]], summary: dict[str, object]) -> str:
    """The figure's table, then its summary (if any) as ``key : value`` lines."""
    text = format_table(rows, title=figure.title)
    return f"{text}\n\n{format_key_values(summary)}" if summary else text


def _plain(value: object) -> object:
    """JSON fallback for numpy scalars in rows and summaries."""
    return value.item()  # type: ignore[attr-defined]


def run_figures(
    ids: Sequence[str] | None = None,
    scale: float = DEFAULT_SCALE,
    workers: int = 1,
    out: str | Path | None = None,
    grids: dict[str, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Run ``ids`` (default: all), print each table and return the document.

    ``workers`` 1 runs every grid cell in this process; more run them on the
    distributed runtime with that many local workers.  ``grids`` maps an id
    to keyword arguments of its ``run`` (the default grid when absent).  The
    document holds the rows and summaries per id; host seconds, the only part
    that differs between two runs, sit under their own key.  With ``out`` it
    is also written there as JSON.
    """
    grids = grids or {}
    document: dict[str, Any] = {"scale": scale, "figures": {}, "host_s": {}}
    with tempfile.TemporaryDirectory(prefix="repro-figures-") as store_dir:
        runtime_config = (
            RuntimeConfig(store_dir=store_dir)
            if workers == 1
            else distributed_runtime(store_dir, workers=workers)
        )
        store = ResultStore(store_dir, shard_count=runtime_config.shard_count)
        for index, figure_id in enumerate(ids or FIGURES):
            figure = FIGURES[figure_id]
            started = time.perf_counter()
            result = figure.run(scale, runtime_config, store, **grids.get(figure_id, {}))
            rows, summary = figure.rows(result)
            document["host_s"][figure_id] = round(time.perf_counter() - started, 2)
            document["figures"][figure_id] = {"title": figure.title, "rows": rows, "summary": summary}
            print(("\n" if index else "") + render(figure, rows, summary), flush=True)
    if out is not None:
        Path(out).write_text(json.dumps(document, indent=1, default=_plain) + "\n")
    return document


def cli(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.experiments [ids...] --scale S --workers N --out FILE``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's figures and tables, print them and write one JSON.",
    )
    parser.add_argument("ids", nargs="*", metavar="id", help=f"any of {', '.join(FIGURES)} (default: all)")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE, help="database scale factor")
    parser.add_argument("--workers", type=int, default=1, help="1 = serial, N > 1 = N local workers")
    parser.add_argument("--out", help="write the JSON document to this file")
    args = parser.parse_args(argv)
    unknown = [figure_id for figure_id in args.ids if figure_id not in FIGURES]
    if unknown:
        parser.error(f"unknown id(s): {', '.join(unknown)}")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    run_figures(args.ids, scale=args.scale, workers=args.workers, out=args.out)
    return 0
