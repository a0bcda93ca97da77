"""Figure 3: the three dataset-split sampling strategies on JOB."""

from __future__ import annotations

from repro.core.splits import DatasetSplit, SplitSampling, generate_split
from repro.experiments.common import job_context
from repro.workloads.workload import Workload


def run(scale: float | None = None, seed: int = 0) -> tuple[Workload, dict[str, DatasetSplit]]:
    """The JOB workload and one split of it per sampling strategy."""
    workload = job_context(scale).workload
    return workload, {
        sampling.value: generate_split(workload, sampling, seed=seed)
        for sampling in SplitSampling
    }


def assignment_rows(
    workload: Workload, splits: dict[str, DatasetSplit]
) -> list[dict[str, object]]:
    """Summary rows: per sampling, how many queries/families land in train vs test."""
    rows = []
    families = workload.families()
    for name, split in splits.items():
        test_families = {workload.by_id(qid).family for qid in split.test_ids}
        fully_held_out = [
            fam for fam in test_families
            if all(q.query_id in split.test_ids for q in families[fam])
        ]
        rows.append(
            {
                "sampling": name,
                "train_queries": len(split.train_ids),
                "test_queries": len(split.test_ids),
                "families_in_test": len(test_families),
                "families_fully_held_out": len(fully_held_out),
            }
        )
    return rows
