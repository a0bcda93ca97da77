"""``tools/perfbench_pairs.py``: what it prints about two sets of runs, without running any."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import perfbench_pairs  # noqa: E402


def run(ops_per_s: float, op_ms_p50: float) -> dict:
    metrics = {"ops_per_s": ops_per_s, "op_ms_p50": op_ms_p50}
    return {"seed": 1, "workloads": {"w": {"correct": True, "attempted": 4, "failed": 0, "end_to_end": metrics}}}


def test_summary_counts_the_pairs_the_change_won_by_each_metrics_direction():
    runs = {
        "A": [run(1.0, 10.0), run(1.1, 9.0), run(0.9, 11.0)],
        "B": [run(2.0, 5.0), run(1.0, 9.5), run(1.8, 6.0)],
    }
    lines = {line.split()[0]: line for line in perfbench_pairs.summary("w", runs)}
    assert lines["ops_per_s"].endswith("2/3 pairs") and " 1 [" in lines["ops_per_s"] and " 1.8 [" in lines["ops_per_s"]
    assert lines["op_ms_p50"].endswith("2/3 pairs") and " 10 [" in lines["op_ms_p50"] and " 6 [" in lines["op_ms_p50"]
    assert lines["sim_ms_total"].endswith("no value")  # a metric no run reported


def test_a_checkout_directory_is_used_as_it_is(tmp_path):
    with perfbench_pairs.checkout(str(tmp_path), tmp_path / "unused", "A") as tree:
        assert tree == tmp_path.resolve()
    assert tmp_path.is_dir() and not (tmp_path / "unused").exists()
