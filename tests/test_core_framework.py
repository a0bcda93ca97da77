"""Tests for the benchmarking framework: splits, protocol, runner, stats, ablations."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ablations import (
    AblationStudyResult,
    QueryAblationOutcome,
    geqo_ablation,
    plan_shape_analysis,
    scan_type_ablation,
)
from repro.core.execution_protocol import ExecutionProtocol
from repro.core.experiment import ExperimentConfig, ExperimentRunner
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.core.report import bullet_list, format_key_values, format_table, to_markdown
from repro.core.splits import DatasetSplit, SplitSampling, generate_split, generate_splits
from repro.core.stats import (
    bootstrap_confidence_interval,
    linear_regression_r2,
    mann_whitney_u_test,
)
from repro.errors import SplitError


class TestSplits:
    def test_leave_one_out_one_test_query_per_family(self, job_workload):
        split = generate_split(job_workload, SplitSampling.LEAVE_ONE_OUT, seed=1)
        families = job_workload.families()
        test_by_family = {}
        for qid in split.test_ids:
            family = job_workload.by_id(qid).family
            test_by_family[family] = test_by_family.get(family, 0) + 1
        assert all(count == 1 for count in test_by_family.values())
        assert len(test_by_family) == len(families)

    def test_random_split_80_20(self, job_workload):
        split = generate_split(job_workload, "random", seed=2)
        assert len(split.test_ids) == pytest.approx(0.2 * len(job_workload), abs=2)
        assert len(split.train_ids) + len(split.test_ids) == len(job_workload)

    def test_base_query_split_keeps_families_together(self, job_workload):
        split = generate_split(job_workload, SplitSampling.BASE_QUERY, seed=3)
        families = job_workload.families()
        test_set = set(split.test_ids)
        for family, queries in families.items():
            ids = {q.query_id for q in queries}
            assert ids <= test_set or not (ids & test_set)

    def test_splits_are_disjoint_and_complete(self, job_workload):
        for sampling in SplitSampling:
            split = generate_split(job_workload, sampling, seed=5)
            assert not set(split.train_ids) & set(split.test_ids)
            assert set(split.train_ids) | set(split.test_ids) == set(job_workload.query_ids())

    def test_different_seeds_differ(self, job_workload):
        a = generate_split(job_workload, "random", seed=1)
        b = generate_split(job_workload, "random", seed=2)
        assert set(a.test_ids) != set(b.test_ids)

    def test_generate_splits_count_and_independence(self, job_workload):
        splits = generate_splits(job_workload, "base_query", n_splits=3)
        assert len(splits) == 3
        assert len({tuple(s.test_ids) for s in splits}) > 1

    def test_invalid_fraction_raises(self, job_workload):
        with pytest.raises(SplitError):
            generate_split(job_workload, "random", test_fraction=1.5)

    def test_split_validation(self):
        with pytest.raises(SplitError):
            DatasetSplit("w", SplitSampling.RANDOM, 0, ("a",), ("a",))


class TestExecutionProtocol:
    def test_measure_plan_three_runs(self, imdb_db, job_workload):
        protocol = ExecutionProtocol(imdb_db)
        query = job_workload.by_id("1a").bound
        planned = protocol.planner.plan_with_info(query)
        measured = protocol.measure_plan(query, planned.plan, planned.planning_time_ms)
        assert len(measured.execution_times_ms) == 3
        assert measured.reported_execution_ms <= measured.first_execution_ms * 1.1

    def test_robustness_aggregation_shape(self, imdb_db, job_workload):
        protocol = ExecutionProtocol(imdb_db)
        measurements = protocol.robustness_study(
            job_workload, executions=6, query_ids=["1a", "2a", "3a"]
        )
        aggregated = ExecutionProtocol.aggregate_robustness(measurements, max_k=5)
        assert set(aggregated) == {1, 2, 3, 4, 5}
        # big drop at k=1, much smaller afterwards
        assert aggregated[1]["mean"] > aggregated[2]["mean"] - 0.02

    def test_robustness_normalized_differences(self):
        from repro.core.execution_protocol import RobustnessMeasurement

        measurement = RobustnessMeasurement("q", [10.0, 8.0, 8.0])
        assert measurement.normalized_differences() == [pytest.approx(0.2), pytest.approx(0.0)]


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def tiny_split(self, job_workload):
        return DatasetSplit(
            workload_name=job_workload.name,
            sampling=SplitSampling.RANDOM,
            split_index=0,
            train_ids=("1a", "2a", "3a", "6a", "6b", "17a"),
            test_ids=("1b", "2b"),
        )

    @pytest.fixture(scope="class")
    def runner(self, imdb_db, job_workload):
        return ExperimentRunner(
            imdb_db,
            job_workload,
            experiment_config=ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1}}),
        )

    def test_postgres_run(self, runner, tiny_split):
        result = runner.run_method("postgres", tiny_split)
        assert len(result.timings) == 2
        assert result.training_time_s == 0.0
        assert all(t.inference_time_ms == 0.0 for t in result.timings)
        assert all(t.execution_time_ms > 0 for t in result.timings)

    def test_bao_run_records_training_and_inference_in_planning(self, runner, tiny_split):
        result = runner.run_method("bao", tiny_split)
        assert result.training_time_s > 0.0
        assert result.executed_training_plans > 0
        # Bao integrates with the DBMS: inference is folded into planning time.
        assert all(t.inference_time_ms == 0.0 for t in result.timings)
        assert all(t.planning_time_ms > 0.5 for t in result.timings)

    def test_config_fingerprint_covers_every_knob_but_the_seed(self):
        base = ExperimentConfig(optimizer_kwargs={"bao": {"training_passes": 1, "hidden_size": 8}})
        assert base.with_seed(7).fingerprint() == base.fingerprint()
        reordered = ExperimentConfig(optimizer_kwargs={"bao": {"hidden_size": 8, "training_passes": 1}})
        assert reordered.fingerprint() == base.fingerprint()
        changed = [
            replace(base, executions_per_query=5),
            replace(base, evaluation_timeout_ms=base.evaluation_timeout_ms / 2),
            replace(base, cold_start_per_query=False),
            replace(base, training_runs_per_plan=2),
            replace(base, optimizer_kwargs={"bao": {"training_passes": 2, "hidden_size": 8}}),
        ]
        fingerprints = {config.fingerprint() for config in changed}
        assert len(fingerprints) == len(changed) and base.fingerprint() not in fingerprints

    def test_summary_rows(self, runner, tiny_split):
        result = runner.run_method("postgres", tiny_split)
        row = result.summary_row()
        assert row["method"] == "postgres"
        assert row["queries"] == 2
        assert row["end_to_end_ms"] >= row["execution_ms"]


class TestMetricsAndStats:
    def test_query_timing_end_to_end(self):
        timing = QueryTiming("q", "m", inference_time_ms=1.0, planning_time_ms=2.0, execution_time_ms=3.0)
        assert timing.end_to_end_ms == 6.0
        assert timing.pre_execution_ms == 3.0

    def test_method_run_result_aggregates(self):
        timings = [
            QueryTiming("1a", "m", inference_time_ms=1.0, planning_time_ms=2.0, execution_time_ms=10.0),
            QueryTiming("1b", "m", inference_time_ms=0.5, planning_time_ms=1.0, execution_time_ms=40.0, timed_out=True),
        ]
        result = MethodRunResult("m", "split", "job", timings=timings)
        assert result.total_inference_ms == 1.5
        assert result.total_planning_ms == 3.0
        assert result.total_execution_ms == 50.0
        assert result.total_end_to_end_ms == 54.5
        assert result.timed_out_queries == ["1b"]
        assert result.timing_for("1b") is timings[1]
        with pytest.raises(KeyError, match="2a"):
            result.timing_for("2a")

    def test_mann_whitney_detects_difference(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, 100)
        b = rng.normal(2.0, 1.0, 100)
        assert mann_whitney_u_test(a, b).significant()
        assert not mann_whitney_u_test(a, a).significant()

    def test_regression_r2_negative_for_noise(self):
        rng = np.random.default_rng(1)
        x = rng.integers(3, 17, 60).astype(float)
        y = rng.lognormal(mean=3.0, sigma=1.0, size=60)
        result = linear_regression_r2(x, y)
        assert result.r_squared < 0.3

    def test_regression_r2_high_for_linear_data(self):
        x = np.arange(50, dtype=float)
        y = 3 * x + 1
        assert linear_regression_r2(x, y).r_squared > 0.95

    def test_bootstrap_ci_contains_mean(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        ci = bootstrap_confidence_interval(values, seed=1)
        assert ci.low <= ci.mean <= ci.high


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": None}]
        text = format_table(rows, title="T")
        assert text.splitlines()[0] == "T"
        assert "xy" in text and "-" in text

    def test_markdown_table(self):
        rows = [{"a": 1.5, "b": True}]
        md = to_markdown(rows, title="X")
        assert "| a | b |" in md and "| 1.500 | yes |" in md

    def test_key_values_and_bullets(self):
        assert "k : 1" in format_key_values({"k": 1})
        assert "- item" in bullet_list(["item"])

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])


class TestAblations:
    @pytest.fixture(scope="class")
    def small_query_ids(self):
        return ["1a", "2a", "3a", "4a", "32a"]

    @staticmethod
    def outcome(query_id: str, baseline_ms: float, ablated_ms: float, p_value: float = 0.5):
        return QueryAblationOutcome(query_id, baseline_ms, ablated_ms, [], [], p_value)

    def test_outcome_factors(self):
        faster = self.outcome("1a", baseline_ms=10.0, ablated_ms=4.0)
        assert faster.difference_ms == -6.0
        assert faster.speedup_factor == 2.5 and faster.slowdown_factor == 0.4
        # A zero time is guarded rather than divided by.
        assert self.outcome("1b", 0.0, 1.0).slowdown_factor == pytest.approx(1e9)
        assert self.outcome("1c", 1.0, 0.0).speedup_factor == pytest.approx(1e9)

    def test_affected_significant_and_extremes(self):
        result = AblationStudyResult(
            "scan",
            [
                self.outcome("1a", 10.0, 10.1, p_value=0.001),  # below the threshold
                self.outcome("2a", 10.0, 5.0, p_value=0.001),  # 2x faster, significant
                self.outcome("3a", 10.0, 30.0, p_value=0.2),  # 3x slower, not significant
                self.outcome("4a", 10.0, 12.0, p_value=0.01),  # 1.2x slower, significant
            ],
        )
        assert [o.query_id for o in result.affected_queries()] == ["2a", "3a", "4a"]
        assert [o.query_id for o in result.affected_queries(threshold_ms=3.0)] == ["2a", "3a"]
        assert [o.query_id for o in result.significant_queries()] == ["2a", "4a"]
        assert [o.query_id for o in result.top_speedups(k=2)] == ["2a", "1a"]
        assert [o.query_id for o in result.top_slowdowns(k=2)] == ["3a", "4a"]

    def test_scan_type_ablation_runs(self, imdb_db, job_workload, small_query_ids):
        result = scan_type_ablation(
            imdb_db, job_workload, hot_samples=3, query_ids=small_query_ids
        )
        assert len(result.outcomes) == len(small_query_ids)
        for outcome in result.outcomes:
            assert outcome.baseline_ms > 0 and outcome.ablated_ms > 0
            assert 0.0 <= outcome.p_value <= 1.0

    def test_geqo_ablation_runs(self, imdb_db, job_workload, small_query_ids):
        result = geqo_ablation(imdb_db, job_workload, hot_samples=2, query_ids=small_query_ids)
        assert len(result.outcomes) == len(small_query_ids)

    def test_plan_shape_analysis(self, imdb_db, job_workload):
        result = plan_shape_analysis(
            imdb_db, job_workload, max_joins=3, max_plans_per_query=12
        )
        assert len(result.samples) > 0
        counts = result.shape_counts()
        assert sum(counts.values()) == len(result.samples)
        assert result.times_for(bushy=False).size > 0
