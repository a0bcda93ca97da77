"""Benchmark several optimizers across the three dataset-split strategies.

A compact version of the paper's Figure 4 experiment: train PostgreSQL (no-op),
Bao, HybridQO and Neo on each split's training queries and compare the
end-to-end timing decomposition (inference + planning + execution) on the test
queries.

Run with ``python examples/job_split_benchmark.py``.
"""

from repro.config import RuntimeConfig
from repro.core.experiment import ExperimentConfig
from repro.core.report import format_table
from repro.core.splits import SplitSampling, generate_split
from repro.experiments.common import job_context
from repro.runtime.parallel import ParallelExperimentRunner

METHODS = ("postgres", "bao", "hybridqo", "neo")


def main() -> None:
    context = job_context(scale=0.35)
    runner = ParallelExperimentRunner(
        context.dispatch_source,
        context.workload,
        experiment_config=ExperimentConfig(
            optimizer_kwargs={
                "bao": {"training_passes": 1},
                "neo": {"training_iterations": 1},
                "hybridqo": {"mcts_iterations": 15},
            }
        ),
        runtime_config=RuntimeConfig(workers=1, executor_kind="serial"),
    )

    all_rows = []
    for sampling in SplitSampling:
        split = generate_split(context.workload, sampling, seed=0)
        print(f"== {split.describe()} ==")
        for result in runner.run_grid(METHODS, [split]):
            row = result.summary_row()
            all_rows.append(row)
            print(
                f"  {result.method:10s} train={row['training_time_s']:>7.1f}s "
                f"plan+infer={row['inference_ms'] + row['planning_ms']:>9.1f}ms "
                f"exec={row['execution_ms']:>9.1f}ms "
                f"end-to-end={row['end_to_end_ms']:>9.1f}ms timeouts={row['timeouts']}"
            )
        print()

    print(format_table(all_rows, title="Summary across splits (compare with Figure 4)"))


if __name__ == "__main__":
    main()
