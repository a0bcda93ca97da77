"""One ``ResultStore`` class: its layout is ``path_for``, its manifest guards it.

A flat store is a store with ``shard_count=0``; a sharded one routes each key
to ``shard-XX/`` by ``TaskKey.shard_index``.  Every store writes
``manifest.json`` (format version, shard count) on first open and refuses any
later open with another layout, because a key routed to the wrong directory
would read as missing and silently re-run.  These tests pin both layouts side
by side, parametrized over flat (0) and sharded (4).
"""

import json

import pytest

from repro.config import RuntimeConfig
from repro.core.metrics import MethodRunResult, QueryTiming
from repro.errors import ExperimentError
from repro.runtime.parallel import ParallelExperimentRunner
from repro.runtime.result_store import (
    MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    ResultStore,
    ShardedResultStore,
    TaskKey,
)

LAYOUTS = (0, 4)

KEYS = [TaskKey("job", f"random-{index}", method, seed=index) for index in range(4) for method in ("postgres", "bao")]


def _result(method: str = "postgres") -> MethodRunResult:
    return MethodRunResult(
        method=method,
        split_name="random-0",
        workload_name="job",
        training_time_s=0.25,
        executed_training_plans=2,
        timings=[
            QueryTiming(
                query_id="1a",
                method=method,
                inference_time_ms=0.0,
                planning_time_ms=1.0,
                execution_time_ms=7.0,
                timed_out=False,
                num_joins=2,
            )
        ],
    )


def _files(root) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestManifest:
    @pytest.mark.parametrize("shard_count", LAYOUTS)
    def test_first_open_writes_the_manifest_and_a_reopen_finds_every_result(self, tmp_path, shard_count):
        store = ResultStore(tmp_path / "store", shard_count=shard_count)
        assert json.loads((store.root / MANIFEST_NAME).read_text()) == {
            "format_version": STORE_FORMAT_VERSION,
            "shard_count": shard_count,
        }
        for key in KEYS:
            store.save(key, _result(key.method), "ctx")
        reopened = ResultStore(tmp_path / "store", shard_count=shard_count)
        assert reopened.manifest() == store.manifest()
        assert all(reopened.exists(key, "ctx") for key in KEYS)

    @pytest.mark.parametrize("created, reopened", [(0, 4), (4, 0)])
    def test_a_refused_open_writes_nothing(self, tmp_path, created, reopened):
        """The refusal comes before any write: no flat duplicate beside the
        shards, no shard beside the flat files, the manifest untouched."""
        ResultStore(tmp_path / "store", shard_count=created).save(KEYS[0], _result(), "ctx")
        before = _files(tmp_path / "store")
        with pytest.raises(ExperimentError, match=f"{created} shards"):
            ResultStore(tmp_path / "store", shard_count=reopened)
        assert _files(tmp_path / "store") == before

    def test_a_manifest_of_another_format_version_is_refused(self, tmp_path):
        ResultStore(tmp_path / "store")
        manifest = tmp_path / "store" / MANIFEST_NAME
        manifest.write_text(json.dumps({"format_version": STORE_FORMAT_VERSION + 1, "shard_count": 0}))
        with pytest.raises(ExperimentError, match="format version"):
            ResultStore(tmp_path / "store")

    @pytest.mark.parametrize("content, reason", [("{not json", "unreadable"), ("[0, 4]", "malformed")])
    def test_an_unusable_manifest_is_refused(self, tmp_path, content, reason):
        ResultStore(tmp_path / "store")
        (tmp_path / "store" / MANIFEST_NAME).write_text(content)
        with pytest.raises(ExperimentError, match=reason):
            ResultStore(tmp_path / "store")

    def test_a_negative_shard_count_is_refused_before_the_root_exists(self, tmp_path):
        with pytest.raises(ExperimentError, match="shard_count"):
            ResultStore(tmp_path / "store", shard_count=-1)
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("shard_count", LAYOUTS)
    def test_the_manifest_is_not_a_result(self, tmp_path, shard_count):
        store = ResultStore(tmp_path / "store", shard_count=shard_count)
        assert list(store.completed_files()) == []
        assert "0 stored results" in store.describe()
        store.save(KEYS[0], _result(), "ctx")
        assert store.clear() == 1
        assert store.manifest()["shard_count"] == shard_count


class TestOneClass:
    def test_the_sharded_name_is_the_flat_class(self, tmp_path):
        assert ShardedResultStore is ResultStore
        store = ShardedResultStore(tmp_path / "store")
        assert store.shard_count == 0 and store.manifest()["shard_count"] == 0

    @pytest.mark.parametrize("shard_count", LAYOUTS)
    def test_path_for_is_the_only_layout_decision(self, tmp_path, shard_count):
        store = ResultStore(tmp_path / "store", shard_count=shard_count)
        for key in KEYS:
            expected = store.root / key.relative_path("ctx")
            if shard_count:
                expected = store.root / f"shard-{key.shard_index(shard_count):02d}" / key.relative_path("ctx")
            assert store.path_for(key, "ctx") == expected
            assert store.save(key, _result(key.method), "ctx") == expected
        stored = {path.relative_to(store.root).parts[0] for path in store.completed_files()}
        if shard_count:
            assert stored == {f"shard-{key.shard_index(shard_count):02d}" for key in KEYS}
        else:
            assert stored == {"job"}

    @pytest.mark.parametrize("shard_count", LAYOUTS)
    def test_a_reopened_store_resumes_instead_of_rerunning(self, tmp_path, shard_count):
        calls = []

        def thunk():
            calls.append(1)
            return _result()

        first = ResultStore(tmp_path / "store", shard_count=shard_count)
        _, resumed = first.load_or_run(KEYS[0], thunk, "ctx")
        assert resumed is False
        second = ResultStore(tmp_path / "store", shard_count=shard_count)
        result, resumed = second.load_or_run(KEYS[0], thunk, "ctx")
        assert resumed is True and calls == [1]
        assert result.to_dict() == _result().to_dict()
        assert (second.loaded_count, second.stored_count) == (1, 0)

    @pytest.mark.parametrize("shard_count", LAYOUTS)
    def test_merge_copies_every_result_byte_for_byte_into_a_flat_store(self, tmp_path, shard_count):
        store = ResultStore(tmp_path / "store", shard_count=shard_count)
        for key in KEYS:
            store.save(key, _result(key.method), f"ctx-{key.seed}")
        merged = store.merge(tmp_path / "merged")
        assert merged.shard_count == 0 and merged.manifest()["shard_count"] == 0
        for key in KEYS:
            fingerprint = f"ctx-{key.seed}"
            assert merged.path_for(key, fingerprint).read_bytes() == store.path_for(key, fingerprint).read_bytes()
        assert sum(1 for _ in merged.completed_files()) == len(KEYS)

    def test_merge_into_a_sharded_root_is_refused(self, tmp_path):
        ResultStore(tmp_path / "target", shard_count=4)
        store = ResultStore(tmp_path / "store")
        store.save(KEYS[0], _result(), "ctx")
        with pytest.raises(ExperimentError, match="4 shards"):
            store.merge(tmp_path / "target")
        assert list(ResultStore(tmp_path / "target", shard_count=4).completed_files()) == []


class TestRunnerStore:
    def test_the_runner_opens_its_store_with_the_configured_layout(self, tmp_path, imdb_db, job_workload):
        def runner(shard_count):
            return ParallelExperimentRunner(
                imdb_db,
                job_workload,
                runtime_config=RuntimeConfig(store_dir=str(tmp_path / "store"), shard_count=shard_count),
            )

        assert runner(4).result_store.shard_count == 4
        assert runner(4).result_store.manifest()["shard_count"] == 4
        with pytest.raises(ExperimentError, match="4 shards"):
            runner(0)
