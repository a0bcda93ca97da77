"""Tests of the benchmark itself: metric coverage, percentile rule, span arithmetic."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import compare, harness
from perfbench.trace import Tracer, covered, self_times
from perfbench.workloads import WORKLOADS

SPEC = json.loads(harness.BENCHMARK_JSON.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_names_every_workload_once():
    """BENCHMARK.json and the workload registry agree; names and bounds are within the contract."""
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


#: Counts of things that go wrong; all zero on a healthy run.
FAILURE_COUNTS = {"executor.timed_out", "runtime.rejected", "runtime.requeued_tasks", "runtime.task_retries"}
LEARNED_METHODS = ("hybridqo", "neo", "balsa")


def left_out_of_smoke(name: str) -> bool:
    """Metrics of the learned cells and of GEQO, which the smoke run (8 small queries, postgres cell) skips."""
    return (
        name.split(".")[0] in ("ml", "encoding")
        or name in ("self_s.ml", "self_s.encoding", "optimizer.geqo_ms_p50")
        or name.endswith(LEARNED_METHODS)
    )


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """One traced smoke run of every workload: scale 0.1, 8 queries, the postgres cell, 50 requests."""
    out_dir = tmp_path_factory.mktemp("smoke")
    return out_dir, {
        name: harness.run_workload(cls, seed=3, seconds=0.2, trace=True, smoke=True, out_dir=out_dir)
        for name, cls in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, smoke_results):
    """Every workload passes its checks and reports every declared metric, none of them zero end to end."""
    out_dir, results = smoke_results
    result = results[name]
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert result.tail_level <= harness.supported_percentile(result.samples)
    end_to_end = result.report(traced=False)["metrics"]
    per_layer = result.report(traced=True)["metrics"]
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert all(entry["value"] > 0 for entry in end_to_end.values()), end_to_end
    assert per_layer["trace_spans_total"]["value"] > 0
    assert (out_dir / f"{name}.spans.jsonl").stat().st_size > 0
    assert not list(out_dir.glob(f"{name}-*")), "scratch directory left behind"


def test_every_per_layer_metric_is_measured_on_some_workload(smoke_results):
    """A misspelt counter or span name reads 0 everywhere; only failure counts may."""
    _, results = smoke_results
    measured = {name for result in results.values() for name, value in result.per_layer.items() if value}
    unmeasured = {m["name"] for m in SPEC["per_layer"]} - measured - FAILURE_COUNTS
    assert {name for name in unmeasured if not left_out_of_smoke(name)} == set()
    # What the smoke run leaves out, the recorded full-size runs must have measured.
    baseline = json.loads((harness.ROOT / "perfbench" / "BASELINE.json").read_text(encoding="utf-8"))["per_layer"]
    assert set(baseline) == set(WORKLOADS)
    for name in unmeasured:
        assert any(per_layer[name] for per_layer in baseline.values()), name


def test_run_prints_the_contract_line_and_writes_the_report(tmp_path):
    """``run.py`` ends standard output with exactly the four keys, and files the full report."""
    finished = subprocess.run(
        [sys.executable, str(harness.ROOT / "perfbench" / "run.py"), "--workload", "job_cold_path",
         "--seed", "1", "--seconds", "0.2", "--trace", "0", "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode == 0, finished.stderr
    line = json.loads(finished.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == harness.declared_metrics()[0]
    report = json.loads((tmp_path / "job_cold_path.json").read_text(encoding="utf-8"))
    assert report["untraced"] == line and report["traced"] is None and report["problems"] == []
    assert report["environment"]["blas_threads"] == dict.fromkeys(harness.BLAS_PINS, "1")


def test_a_dead_plan_server_is_counted_not_waited_for(tmp_path):
    """Client loops are bounded by attempts: with the server gone every request fails, promptly."""
    workload = WORKLOADS["serve_replay"](seed=1, smoke=True, scratch=tmp_path)
    try:
        workload.setup()
        workload.warmup()
        workload.server.kill()
        workload.server.wait()
        started = time.perf_counter()
        measured = workload.trace_reference(None)
    finally:
        workload.teardown()
    assert time.perf_counter() - started < 10.0
    assert measured.attempted == measured.failed == 50 and measured.latencies_ms == []


def test_run_refuses_a_directory_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, run.py exits non-zero and prints no result."""
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(harness.BENCHMARK_JSON, tmp_path)
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "job_cold_path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""


def test_percentile_is_nearest_rank():
    """Percentiles are nearest-rank values of the sample, never interpolated."""
    samples = [float(value) for value in range(1, 101)]
    assert harness.percentile(samples, 50.0) == 50.0
    assert harness.percentile(samples, 90.0) == 90.0
    assert harness.percentile(samples, 99.0) == 99.0
    assert harness.percentile([7.0], 99.0) == 7.0
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 90.0) == 4.0


def test_highest_percentile_with_ten_samples_beyond():
    """The reportable level is the highest with at least ten samples beyond it."""
    assert harness.supported_percentile(5) == 50.0
    assert harness.supported_percentile(39) == 50.0
    assert harness.supported_percentile(40) == 75.0
    assert harness.supported_percentile(55) == 80.0  # one serve_miss pass
    assert harness.supported_percentile(113) == 90.0  # one JOB pass
    assert harness.supported_percentile(226) == 95.0  # two JOB passes
    assert harness.supported_percentile(999) == 95.0
    assert harness.supported_percentile(1000) == 99.0
    assert harness.supported_percentile(10_000) == 99.9


def test_every_operation_is_reported_at_its_fastest_pass():
    """A slow episode in one pass of an operation leaves the result untouched."""
    passes = [({"q1": 10.0, "q2": 90.0}, 0), ({"q1": 15.0, "q2": 60.0, "q3": 5.0}, 1)]
    measured = harness.fastest_of_passes(passes, operations=3, sim_ms=1.5)
    assert dict(zip(measured.keys, measured.latencies_ms)) == {"q1": 10.0, "q2": 60.0, "q3": 5.0}
    assert measured.busy_s == pytest.approx(0.075) and measured.total_s == pytest.approx(0.180)
    assert (measured.attempted, measured.failed, measured.sim_ms) == (6, 1, 1.5)


def test_untraced_runs_make_at_least_two_passes_and_traced_runs_a_fixed_number():
    """``seconds`` only adds passes; ``fixed`` ignores the clock."""
    assert harness.run_passes(lambda index: index, seconds=0.0) == [0, 1]
    assert harness.run_passes(lambda index: index, seconds=3600.0, fixed=3) == [0, 1, 2]
    assert len(harness.run_passes(lambda index: time.sleep(0.02), seconds=0.1)) >= 3


def test_self_time_is_duration_minus_covered_child_time():
    """Self times subtract direct children only and partition the root span."""
    spans = [
        (1, 0, 1, "harness.op", 0.0, 10.0),
        (2, 1, 1, "optimizer.plan", 1.0, 6.0),
        (3, 2, 1, "optimizer.best_join", 2.0, 3.0),
        (4, 2, 1, "optimizer.best_join", 3.5, 4.5),
        (5, 1, 1, "executor.execute", 7.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0, 5: 2.0}
    assert sum(own.values()) == 10.0  # self times partition the root span


def test_overlapping_children_are_covered_once():
    """Child intervals are clipped to the parent and their union is taken."""
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, []) == 0.0
    # Two children running on other threads at once do not count twice.
    assert self_times([(1, 0, 0, "a.x", 0.0, 10.0), (2, 1, 0, "b.y", 1.0, 4.0), (3, 1, 0, "b.y", 3.0, 6.0)])[1] == 5.0


class _Subject:
    def double(self, value):
        return 2 * value

    @staticmethod
    def triple(value):
        return 3 * value


def test_wrappers_record_nested_spans_and_uninstall_restores():
    """Wrappers nest under the open span, carry its request id, and come off cleanly."""
    originals = (_Subject.__dict__["double"], _Subject.__dict__["triple"])
    tracer = Tracer()
    tracer.wrap(_Subject, "double", "layer.double", observe=lambda t, result: t.add("layer.sum", result))
    tracer.wrap(_Subject, "triple", "layer.triple_calls", count_only=True)
    with tracer.span("harness.op", request=7):
        assert _Subject().double(4) == 8
        assert _Subject.triple(2) == 6
    tracer.uninstall()
    assert (_Subject.__dict__["double"], _Subject.__dict__["triple"]) == originals
    by_name = {span[3]: span for span in tracer.spans}
    assert set(by_name) == {"harness.op", "layer.double"}
    assert by_name["layer.double"][1] == by_name["harness.op"][0]  # parent id
    assert by_name["layer.double"][2] == by_name["harness.op"][2] == 7  # request id
    assert tracer.counters == {"layer.sum": 8, "layer.triple_calls": 1}


def test_compare_verdicts():
    """improved / within bound / regressed / unresolved, in both directions of better."""
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [value * 1.2 for value in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [value * 0.8 for value in steady], "lower", 0.1)[0] == "improved"
    assert compare.verdict(steady, [value * 0.8 for value in steady], "higher", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [value * 1.02 for value in steady], "lower", 0.1)[0] == "within bound"
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    # Medians within the bound, spread wider than it, yet every run of the change wins.
    assert compare.verdict(noisy, [69.0, 68.0, 67.0], "lower", 0.35)[0] == "improved"
    assert compare.verdict([5.0], [5.0], "lower", 0.001) == ("within bound", 0.0)


def _result_file(path, workloads):
    outcome = {
        "correct": True, "problems": [], "attempted": 10, "failed": 0, "per_layer": None,
        "end_to_end": {metric["name"]: 5.0 for metric in SPEC["end_to_end"]},
    }
    path.write_text(json.dumps({"workloads": dict.fromkeys(workloads, outcome)}), encoding="utf-8")
    return path


def test_compare_rejects_a_missing_workload(tmp_path, capsys):
    """Two complete equal sets agree; a workload absent from the change is a complaint, not a skip."""
    complete = _result_file(tmp_path / "a.json", list(WORKLOADS))
    assert compare.compare(complete, complete) == 0
    partial = _result_file(tmp_path / "b.json", list(WORKLOADS)[:-1])
    assert compare.compare(complete, partial) == 1
    assert f"{list(WORKLOADS)[-1]} setup_s: no value in change" in capsys.readouterr().out


def test_a_crashed_workload_is_recorded_and_fails_the_comparison(tmp_path):
    """``python -m perfbench run`` files a crashed workload as incorrect; ``compare`` then exits 1."""
    finished = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", "no_such_workload", "--no-trace",
         "--out", str(tmp_path)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode == 1
    result = tmp_path / "result.json"
    recorded = json.loads(result.read_text(encoding="utf-8"))["workloads"]["no_such_workload"]
    assert recorded["correct"] is False and recorded["end_to_end"] == {}
    assert compare.compare(result, result) == 1
