"""Section 8.3: the covariate-shift ablation (Bao-Full vs. Bao-50).

A Bao model trained on IMDB-50% (half of ``title`` removed with cascading
deletes) is evaluated against a Bao model trained on the full IMDB, both on
the full database using the same base-query split.  Expected shape: several
queries regress noticeably under the shifted model, a few improve — refreshed
cardinality statistics alone do not compensate for the distribution shift.
"""

from __future__ import annotations

from repro.core.covariate_shift import CovariateShiftResult, run_covariate_shift_study
from repro.core.experiment import ExperimentConfig
from repro.core.splits import SplitSampling, generate_split
from repro.experiments.common import imdb_half_database, job_context


def run(
    scale: float | None = None,
    seed: int = 0,
    experiment_config: ExperimentConfig | None = None,
) -> CovariateShiftResult:
    """Run the Bao-Full vs. Bao-50 study on base-query split 1 (as in the paper)."""
    context = job_context(scale)
    half = imdb_half_database(scale)
    split = generate_split(context.workload, SplitSampling.BASE_QUERY, seed=seed)
    return run_covariate_shift_study(
        context.database,
        half,
        context.workload,
        split,
        experiment_config=experiment_config or ExperimentConfig(),
    )


def rows(result: CovariateShiftResult) -> list[dict[str, object]]:
    out = []
    for timing in result.shifted_model.timings:
        factor = result.slowdown_factors.get(timing.query_id)
        reference = result.full_model.timing_for(timing.query_id)
        out.append(
            {
                "query_id": timing.query_id,
                "bao_full_ms": round(reference.execution_time_ms, 2),
                "bao_50_ms": round(timing.execution_time_ms, 2),
                "slowdown_factor": round(factor, 2) if factor is not None else None,
            }
        )
    return sorted(out, key=lambda r: -(r["slowdown_factor"] or 0.0))
