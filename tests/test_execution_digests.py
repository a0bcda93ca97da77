"""Executor output is pinned: ``tests/golden/execution_digests.json``.

Every JOB, ext-JOB and STACK default plan, on the perfbench databases (scale
1.0) and the test databases (scale 0.25), run one cold and two hot times: rows,
simulated times, metrics, per-node actual rows, timeouts and errors must hash
to the recording.  Recorded by ``tools/record_execution_digests.py`` (``make
golden-executions``) at the last commit that changed execution on purpose.
"""

from __future__ import annotations

import json

import pytest

from tools import record_execution_digests as recorder


@pytest.fixture(scope="module")
def document() -> dict:
    return json.loads(recorder.GOLDEN_PATH.read_text(encoding="utf-8"))


def _assert_unchanged(recorded: dict[str, str], executed: dict[str, str]) -> None:
    assert executed.keys() == recorded.keys()
    changed = [key for key in recorded if executed[key] != recorded[key]]
    assert not changed, f"{len(changed)} executions changed, first: {changed[:5]}"


def test_the_recording_covers_both_scales_and_every_workload(document):
    assert document["runs"] == recorder.RUNS == 3
    for label, args in recorder.database_args().items():
        assert document[label]["databases"] == args
        assert len(document[label]["digests"]) == 113 + 24 + 112


def test_executions_at_the_benchmark_scale_match_the_recording(document):
    executed = recorder.execution_digests(recorder.build_bench_databases())
    _assert_unchanged(document["bench"]["digests"], executed)


@pytest.mark.parametrize("kind", ["columnar", "row"])
def test_executions_on_the_test_databases_match_the_recording(document, imdb_db, stack_db, kind):
    executed = recorder.execution_digests({"imdb": imdb_db, "stack": stack_db}, kind=kind)
    _assert_unchanged(document["test"]["digests"], executed)
