"""Every ``FIGURES`` entry on a reduced grid at scale 0.1, through the runner.

The reduced grids live here, not in ``src/``: the entries' defaults are the
paper's grids.  Each assertion the retired per-figure benchmark scripts made
is kept, on the rows and summaries the runner writes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import iter_presets
from repro.core.experiment import ExperimentConfig
from repro.core.splits import SplitSampling
from repro.experiments import table2
from repro.experiments.common import job_spec
from repro.experiments.figures import FIGURES, run_figures
from repro.storage import registry

SCALE = 0.1

#: Figures 4, 5 and 6 share one grid, so Figure 6 resumes every cell.
END_TO_END = {
    "methods": ("postgres", "neo"),
    "splits_per_sampling": 1,
    "experiment_config": ExperimentConfig(optimizer_kwargs={"neo": {"training_iterations": 1}}),
}

GRIDS = {
    "figure2": {},
    "figure3": {},
    "figure4": END_TO_END,
    "figure5": END_TO_END,
    "figure6": END_TO_END,
    "figure7": {
        "executions": 12,
        "query_ids": ["1a", "2a", "3a", "4a", "6a", "8a", "10a", "17a", "20a", "32a"],
    },
    "table1": {},
    "table2": {},
    "s83": {"experiment_config": ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}})},
    "s84": {
        "hot_samples": 4,
        "query_ids": [
            "1a", "2a", "3a", "4a", "5a", "6a", "7a", "8a", "10a", "13a",
            "15a", "17a", "20a", "22a", "28a", "30a", "32a",
        ],
    },
    "s85": {
        "hot_samples": 3,
        "query_ids": ["14a", "20a", "22a", "23a", "24a", "26a", "27a", "28a", "29a", "30a", "31a", "33a"],
    },
    "s87": {"max_joins": 4, "max_plans_per_query": 20},
}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """One serial runner invocation over every id, read back from its JSON."""
    out = tmp_path_factory.mktemp("figures") / "figures.json"
    run_figures(scale=SCALE, out=out, grids=GRIDS)
    return json.loads(out.read_text())


def _figure(document, figure_id):
    entry = document["figures"][figure_id]
    return entry["rows"], entry["summary"]


def test_every_figure_has_a_reduced_grid_and_runs(document):
    assert list(GRIDS) == list(FIGURES)
    assert list(document["figures"]) == list(FIGURES)
    assert set(document["host_s"]) == set(FIGURES)
    for figure_id, entry in document["figures"].items():
        assert entry["title"] == FIGURES[figure_id].title
        assert entry["rows"], figure_id


def test_figure2_join_count_is_a_poor_predictor(document):
    rows, summary = _figure(document, "figure2")
    assert summary["n"] == len(rows) == 113
    assert summary["r_squared"] < 0.5


def test_figure3_splits(document):
    rows, _ = _figure(document, "figure3")
    by_sampling = {row["sampling"]: row for row in rows}
    assert set(by_sampling) == {s.value for s in SplitSampling}
    assert by_sampling["leave_one_out"]["test_queries"] == 33  # one variant per family
    assert by_sampling["base_query"]["families_fully_held_out"] > 0


def test_figure3_builds_only_the_requested_database(monkeypatch):
    fresh = registry.DatabaseRegistry()
    monkeypatch.setattr(registry, "_PROCESS_REGISTRY", fresh)
    figure = FIGURES["figure3"]
    figure.rows(figure.run(SCALE, None, None))
    assert len(fresh) == 1 and fresh.contains(job_spec(SCALE))


@pytest.mark.parametrize("figure_id", ["figure4", "figure5"])
def test_end_to_end_grid_has_every_cell(document, figure_id):
    rows, summary = _figure(document, figure_id)
    grid = GRIDS[figure_id]
    assert len(rows) == len(grid["methods"]) * len(SplitSampling) * grid["splits_per_sampling"]
    best = {key: method for key, method in summary.items() if key.startswith("best[")}
    assert len(best) == len(SplitSampling) and set(best.values()) <= set(grid["methods"])
    assert summary["simulated_total_ms"] == pytest.approx(sum(r["end_to_end_ms"] for r in rows), abs=0.1)


def test_figure6_reuses_the_end_to_end_cells(document):
    rows, summary = _figure(document, "figure6")
    assert len(rows) == len(_figure(document, "figure4")[0]) + len(_figure(document, "figure5")[0])
    learned = [row for row in rows if row["method"] != "postgres"]
    assert learned and all(row["training_time_s"] > 0 for row in learned)
    assert all(row["training_time_s"] == 0.0 for row in rows if row["method"] == "postgres")
    assert summary["n"] == len(learned)


def test_figure7_first_execution_is_the_cold_one(document):
    _, summary = _figure(document, "figure7")
    assert summary["mean_drop_1st_2nd"] > 0.03  # the cache warm-up is clearly visible
    assert abs(summary["mean_drop_2nd_3rd"]) < summary["mean_drop_1st_2nd"]


def test_s86_third_execution_is_robust():
    """§8.6: the third run sits no farther from the hot times than the mean of three."""
    figure7 = FIGURES["figure7"]
    result = figure7.run(
        SCALE, None, None, executions=8, query_ids=["1a", "2a", "5a", "6a", "11a", "17a", "21a", "30a"]
    )
    third, mean_of_three = [], []
    for measurement in result.measurements:
        times = np.asarray(measurement.execution_times_ms)
        hot = float(np.median(times[3:]))
        third.append(abs(times[2] - hot) / hot)
        mean_of_three.append(abs(times[:3].mean() - hot) / hot)
    assert float(np.mean(third)) <= float(np.mean(mean_of_three)) + 1e-9


def test_tables(document):
    table1_rows, _ = _figure(document, "table1")
    assert {row["LQO"] for row in table1_rows} == {
        "Neo", "RTOS", "Bao", "Balsa", "Lero", "LEON", "LOGER", "HybridQO",
    }
    assert len(table1_rows) == 8
    assert len(_figure(document, "table2")[0]) == len(table2.TABLE2_PARAMETERS)
    # The paper's bold marks: each preset's deviations from PostgreSQL's defaults.
    deviations = {name: config.diff_from_default() for name, config in iter_presets()}
    assert deviations["default"] == {}
    assert "enable_bitmapscan" in deviations["balsa_leon"]


def test_s83_slowdown_factors_are_positive(document):
    rows, summary = _figure(document, "s83")
    factors = [row["slowdown_factor"] for row in rows if row["slowdown_factor"] is not None]
    assert factors and all(factor > 0 for factor in factors)
    assert summary["largest_regressions"]


@pytest.mark.parametrize("figure_id", ["s84", "s85"])
def test_ablations_have_outcomes(document, figure_id):
    rows, summary = _figure(document, figure_id)
    assert len(rows) == len(GRIDS[figure_id]["query_ids"])
    assert summary["significant_queries"] <= summary["affected_queries"] <= len(rows)


def test_s87_bushy_plans_reach_the_fast_tail(document):
    rows, summary = _figure(document, "s87")
    assert summary["bushy_plans"] > 0 and summary["linear_plans"] > 0
    assert sum(row["plans"] for row in rows) == summary["enumerated_plans"]
    # Within measurement noise, the fastest bushy plan matches the fastest linear one.
    assert summary["bushy_min_ms"] <= summary["linear_min_ms"] * 1.10


def test_figure4_json_is_the_same_serial_parallel_and_across_runs(document, tmp_path):
    grid = {"figure4": {**END_TO_END, "samplings": (SplitSampling.RANDOM,)}}
    written = []
    for index, workers in enumerate((1, 1, 2)):
        out = tmp_path / f"run{index}.json"
        run_figures(["figure4"], scale=SCALE, workers=workers, out=out, grids=grid)
        written.append(json.loads(out.read_text()))
    for doc in written:
        assert set(doc.pop("host_s")) == {"figure4"}
    assert written[0] == written[1] == written[2]
    # The one-sampling grid is a slice of the three-sampling run above.
    random_rows = [r for r in _figure(document, "figure4")[0] if r["split"].startswith("random")]
    assert written[0]["figures"]["figure4"]["rows"] == random_rows

