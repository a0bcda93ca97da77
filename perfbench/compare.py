"""Judge two sets of results by the bounds ``BENCHMARK.json`` fixes.

``python -m perfbench compare A B``: ``A`` is the parent, ``B`` the change; each
is a result file written by ``python -m perfbench run`` or a directory of them
(one file per run).  Every (end-to-end metric, workload) pair gets its own row
and one of four verdicts:

* ``regressed``    — B's median is worse than A's by more than the bound;
* ``improved``     — B's median is better than A's by more than the bound, or
  every run of B reads better than every run of A;
* ``unresolved``   — the medians are within the bound but the run-to-run spread
  (distance between the quartiles over the median) is wider than the bound;
* ``within bound`` — otherwise.

The exit code is 1 when any pair regressed or is missing from either side (a
crashed workload reports no metrics), a run was incorrect, or operations
failed.  This is also how "two sets of runs of one commit agree" is checked.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from perfbench.harness import BENCHMARK_JSON

#: ``{(workload, metric): [one value per run]}``
Samples = dict[tuple[str, str], list[float]]


def load(path: Path) -> tuple[Samples, list[str]]:
    """End-to-end samples and complaints of a result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    end_to_end: Samples = defaultdict(list)
    complaints = []
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        for workload, outcome in result["workloads"].items():
            if not outcome["correct"]:
                complaints.append(f"{file.name}: {workload} failed its output checks")
            if outcome["failed"]:
                complaints.append(f"{file.name}: {workload} had {outcome['failed']} failed operations")
            for name, value in outcome["end_to_end"].items():
                end_to_end[workload, name].append(value)
    return end_to_end, complaints


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is the medians' relative change, > 0 when worse."""
    base, new = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / abs(base)
    if worsening > bound:
        return "regressed", worsening
    if worsening < -bound:
        return "improved", worsening
    if max(spread(parent), spread(change)) > bound:
        clear_win = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        return ("improved" if clear_win else "unresolved"), worsening
    return "within bound", worsening


def compare(parent_path: Path, change_path: Path) -> int:
    """Print one row per (metric, workload) of BENCHMARK.json; return the process exit code."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    parent, complaints = load(parent_path)
    change, change_complaints = load(change_path)
    complaints += change_complaints
    regressions = 0
    print(f"{'workload':<18} {'metric':<14} {'parent':>14} {'change':>14} {'worse by':>9} {'bound':>7}  verdict")
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            absent = [side for side, samples in (("parent", parent), ("change", change)) if key not in samples]
            if absent:
                complaints.append(f"{workload} {metric['name']}: no value in {' and '.join(absent)}")
                continue
            outcome, worsening = verdict(parent[key], change[key], metric["better"], metric["bound"])
            regressions += outcome == "regressed"
            print(
                f"{workload:<18} {metric['name']:<14} {statistics.median(parent[key]):>14.6g} "
                f"{statistics.median(change[key]):>14.6g} {worsening:>+9.2%} {metric['bound']:>7.1%}  {outcome}"
            )
    for complaint in complaints:
        print(f"perfbench compare: {complaint}")
    return 1 if regressions or complaints else 0
