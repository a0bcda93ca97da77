"""Figures 4 and 5: end-to-end comparison of LQOs vs. PostgreSQL.

Figure 4 runs the JOB workload, Figure 5 the STACK workload (whose queries
join fewer tables, so LEON's inference is an order of magnitude faster).
For every sampling strategy (leave-one-out, random, base-query) and every
train/test split, each method is trained on the training queries and evaluated
on the test queries; the figure reports, per method and split, the summed
planning+inference time and the summed execution time over the test set.

Expected shape (paper): PostgreSQL generally best, HybridQO and Bao
competitive on several splits, Neo and Balsa slower, LEON dominated by its
inference time; difficulty increases from leave-one-out over random to
base-query sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import MethodRunResult, workload_summary
from repro.core.splits import DatasetSplit, SplitSampling, generate_splits
from repro.experiments.common import BenchmarkContext
from repro.lqo.registry import MAIN_EVALUATION_METHODS
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import ResultStore

#: Default (reduced) experiment grid: one split per sampling strategy.  The
#: paper uses three splits per sampling; pass ``splits_per_sampling=3`` to
#: reproduce the full grid.
DEFAULT_SPLITS_PER_SAMPLING = 1


@dataclass
class EndToEndResult:
    """All method runs of the Figure 4/5 experiment plus the split definitions."""

    workload_name: str
    splits: list[DatasetSplit] = field(default_factory=list)
    runs: list[MethodRunResult] = field(default_factory=list)

    def rows(self) -> list[dict[str, object]]:
        return workload_summary(self.runs)

    def runs_for_split(self, split_name: str) -> list[MethodRunResult]:
        return [run for run in self.runs if run.split_name == split_name]

    def best_method_per_split(self) -> dict[str, str]:
        """Method with the lowest end-to-end total per split."""
        out: dict[str, str] = {}
        for split in self.splits:
            runs = self.runs_for_split(split.name)
            if runs:
                best = min(runs, key=lambda r: r.total_end_to_end_ms)
                out[split.name] = best.method
        return out


def run_for_context(
    context: BenchmarkContext,
    methods: tuple[str, ...] = MAIN_EVALUATION_METHODS,
    splits_per_sampling: int = DEFAULT_SPLITS_PER_SAMPLING,
    samplings: tuple[SplitSampling, ...] = (
        SplitSampling.LEAVE_ONE_OUT,
        SplitSampling.RANDOM,
        SplitSampling.BASE_QUERY,
    ),
    experiment_config: ExperimentConfig | None = None,
    seed: int = 0,
    runtime_config: RuntimeConfig | None = None,
    result_store: ResultStore | None = None,
) -> EndToEndResult:
    """Run the end-to-end comparison over an arbitrary benchmark context.

    Every cell runs through :class:`ParallelExperimentRunner`: a seed derived
    from the cell's identity and simulated inference and training times, so
    the result is the same bytes on every run and on 1 or N workers.  Without
    a ``runtime_config`` the grid runs serially in this process.  With a
    ``result_store``, completed runs are resumed from disk instead of
    recomputed.
    """
    # The runner receives the context's dispatch source — the DatabaseSpec
    # when the database came out of the catalog factories — so distributed
    # fan-out ships the recipe instead of the table data.
    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=experiment_config,
        runtime_config=runtime_config or RuntimeConfig(workers=1, executor_kind="serial"),
        result_store=result_store,
    )
    result = EndToEndResult(workload_name=context.workload.name)
    for sampling in samplings:
        splits = generate_splits(
            context.workload, sampling, n_splits=splits_per_sampling, base_seed=seed
        )
        result.splits.extend(splits)
        result.runs.extend(runner.run_comparison(methods, splits))
    return result

