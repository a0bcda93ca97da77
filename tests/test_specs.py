"""Tests for spec-based database construction: DatabaseSpec, registry, dispatch."""

import json
import multiprocessing
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.catalog.datagen import generate_synthetic
from repro.catalog import factories
from repro.catalog.factories import build_from_spec
from repro.catalog.imdb import generate_imdb
from repro.config import SIMULATION_CONFIG
from repro.core.experiment import ExperimentRunner
from repro.core.splits import DatasetSplit, SplitSampling
from repro.errors import CatalogError, ExperimentError, StorageError, WorkloadError
from repro.runtime.parallel import ParallelExperimentRunner, execute_spec_payload_with_identity
from repro.storage.registry import (
    MAX_DATABASES,
    DatabaseRegistry,
    get_process_registry,
    resolve_database,
)
from repro.storage.spec import DatabaseSpec
from repro.workloads import WORKLOADS, build_workload, is_registered_workload

SYNTH = DatabaseSpec.create("synthetic", scale=0.2, seed=5, config=SIMULATION_CONFIG)


def _fingerprint_in_child(spec: DatabaseSpec) -> str:
    """Module-level so a spawn-started interpreter can import and run it."""
    return spec.fingerprint()


def _result_in_child(payload):
    """The worker entry point's result alone, run in a spawn-started interpreter."""
    return execute_spec_payload_with_identity(payload)[0]


def _build_digest_in_child(spec: DatabaseSpec) -> str:
    """Fingerprint of the actual table bytes a fresh process builds."""
    database = spec.build()
    import hashlib

    digest = hashlib.sha256()
    for tname in database.table_names():
        data = database.table_data(tname)
        for cname in sorted(data.columns):
            digest.update(cname.encode())
            digest.update(np.ascontiguousarray(data.column(cname)).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# DatabaseSpec value semantics and fingerprints
# ---------------------------------------------------------------------------


class TestDatabaseSpec:
    def test_create_canonicalizes_param_order(self):
        a = DatabaseSpec.create("imdb-half", title_fraction=0.5, sample_seed=7)
        b = DatabaseSpec.create("imdb-half", sample_seed=7, title_fraction=0.5)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_invalid_specs_rejected(self):
        with pytest.raises(StorageError):
            DatabaseSpec.create("")
        with pytest.raises(StorageError):
            DatabaseSpec.create("imdb", scale=0.0)
        with pytest.raises(StorageError):
            DatabaseSpec.create("imdb", tables={"a": 1})  # non-scalar param

    def test_equal_specs_equal_fingerprints(self):
        assert SYNTH.fingerprint() == DatabaseSpec.create(
            "synthetic", scale=0.2, seed=5, config=SIMULATION_CONFIG
        ).fingerprint()

    def test_any_field_change_new_fingerprint(self):
        base = SYNTH
        variants = [
            base.with_scale(0.4),
            base.with_seed(6),
            base.with_config(None),
            base.with_config(SIMULATION_CONFIG.with_overrides(work_mem=2 * SIMULATION_CONFIG.work_mem)),
            DatabaseSpec.create("imdb", scale=0.2, seed=5, config=SIMULATION_CONFIG),
            DatabaseSpec.create("synthetic", scale=0.2, seed=5, config=SIMULATION_CONFIG, fanout=4.0),
        ]
        fingerprints = [base.fingerprint()] + [v.fingerprint() for v in variants]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_fingerprint_stable_across_processes(self):
        """The digest must not depend on per-process ``hash()`` salting."""
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            child = pool.submit(_fingerprint_in_child, SYNTH).result()
        assert child == SYNTH.fingerprint()

    def test_pickled_spec_is_tiny(self):
        assert len(pickle.dumps(SYNTH)) < 10 * 1024

    def test_describe_names_generator_and_scale(self):
        text = SYNTH.describe()
        assert "synthetic" in text and "scale=0.2" in text


# ---------------------------------------------------------------------------
# Factories and deterministic rebuilds
# ---------------------------------------------------------------------------


class TestFactories:
    def test_bundled_generators_registered(self):
        assert set(factories.GENERATORS) == {"imdb", "imdb-half", "stack", "synthetic"}

    def test_unknown_generator_raises(self):
        with pytest.raises(CatalogError, match="no-such-db"):
            DatabaseSpec.create("no-such-db").build()
        with pytest.raises(CatalogError):
            get_process_registry().get(DatabaseSpec.create("no-such-db"))

    def test_built_database_carries_its_spec(self):
        database = build_from_spec(SYNTH)
        assert database.spec == SYNTH
        reconfigured = database.with_config(SIMULATION_CONFIG.with_overrides(geqo=False))
        assert reconfigured.spec is not None
        assert reconfigured.spec.config.geqo is False

    def test_rebuild_is_deterministic_across_processes(self):
        """A spawn-started interpreter rebuilds bit-identical table data."""
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            child_digest = pool.submit(_build_digest_in_child, SYNTH).result()
        assert child_digest == _build_digest_in_child(SYNTH)

    def test_spec_params_forwarded_to_generator(self):
        narrow = DatabaseSpec.create("synthetic", scale=0.2, seed=5, fanout=2.0).build()
        wide = DatabaseSpec.create("synthetic", scale=0.2, seed=5, fanout=16.0).build()
        assert wide.table_data("fact").row_count > narrow.table_data("fact").row_count


# ---------------------------------------------------------------------------
# DatabaseRegistry: memoization, LRU, build-once under concurrency
# ---------------------------------------------------------------------------


def _stub_database(scale, seed, config, **params):
    """A stand-in build: the registry stores whatever the generator returns."""
    return type("StubDatabase", (), {})()


class TestDatabaseRegistry:
    def test_build_once_then_reuse(self):
        registry = DatabaseRegistry()
        first = registry.get(SYNTH)
        second = registry.get(SYNTH)
        assert first is second
        assert len(registry) == 1

    def test_distinct_specs_distinct_instances(self):
        registry = DatabaseRegistry()
        a = registry.get(SYNTH)
        b = registry.get(SYNTH.with_seed(6))
        assert a is not b
        assert len(registry) == 2

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setitem(factories.GENERATORS, "stub", _stub_database)
        registry = DatabaseRegistry()
        specs = [DatabaseSpec.create("stub", seed=seed) for seed in range(MAX_DATABASES + 1)]
        built = [registry.get(spec) for spec in specs[:MAX_DATABASES]]
        assert len(registry) == MAX_DATABASES == 8
        assert registry.get(specs[0]) is built[0]  # refresh: seed 1 is now the LRU entry
        registry.get(specs[MAX_DATABASES])  # evicts seed 1
        assert len(registry) == MAX_DATABASES
        assert registry.contains(specs[0]) and not registry.contains(specs[1])
        assert registry.get(specs[1]) is not built[1]  # rebuilt after eviction

    def test_concurrent_access_builds_once(self, monkeypatch):
        """Many threads racing on the same spec must trigger exactly one build."""
        builds: list[int] = []
        build_lock = threading.Lock()

        def counting_factory(scale, seed, config, **params):
            with build_lock:
                builds.append(1)
            return generate_synthetic(scale=scale, seed=seed, config=config, **params)

        monkeypatch.setitem(factories.GENERATORS, "counting-synthetic", counting_factory)
        registry = DatabaseRegistry()
        spec = DatabaseSpec.create("counting-synthetic", scale=0.2, seed=1)
        barrier = threading.Barrier(8)
        results: list[object] = []

        def worker():
            barrier.wait()
            results.append(registry.get(spec))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert len(results) == 8 and len({id(db) for db in results}) == 1
        assert len(registry) == 1

    def test_resolve_database_passthrough_and_spec(self):
        database = generate_synthetic(scale=0.2, seed=5)
        assert resolve_database(database) is database
        via_spec = resolve_database(SYNTH)
        assert via_spec.name == "synthetic"
        assert resolve_database(SYNTH) is via_spec  # process registry memoizes
        assert get_process_registry().contains(SYNTH)


# ---------------------------------------------------------------------------
# Workload factories (worker-side rebuild by name)
# ---------------------------------------------------------------------------


class TestWorkloadFactories:
    def test_bundled_workloads_registered(self):
        assert set(WORKLOADS) == {"job", "stack", "ext_job"}
        assert is_registered_workload("job") and not is_registered_workload("nope")

    def test_build_workload_by_name(self, imdb_db):
        workload = build_workload("job", imdb_db.schema)
        assert workload.name == "job" and len(workload) > 0

    @pytest.mark.parametrize("name", ["no-such-workload", "random"])
    def test_unknown_workload_raises(self, imdb_db, name):
        with pytest.raises(WorkloadError):
            build_workload(name, imdb_db.schema)


# ---------------------------------------------------------------------------
# Spec dispatch through the experiment runtime
# ---------------------------------------------------------------------------


def _json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def small_imdb_spec():
    return DatabaseSpec.create("imdb", scale=0.25, seed=7, config=SIMULATION_CONFIG)


@pytest.fixture(scope="module")
def spec_runner_parts(small_imdb_spec):
    database = get_process_registry().get(small_imdb_spec)
    workload = build_workload("job", database.schema)
    split = DatasetSplit(
        workload_name=workload.name,
        sampling=SplitSampling.RANDOM,
        split_index=0,
        train_ids=("1a", "2a", "3a"),
        test_ids=("1b", "2b"),
    )
    return database, workload, split


class TestSpecDispatch:
    def test_runner_accepts_spec_and_memoizes(self, small_imdb_spec, spec_runner_parts):
        database, workload, _ = spec_runner_parts
        runner = ParallelExperimentRunner(small_imdb_spec, workload)
        assert runner.database is database  # same registry instance, no rebuild
        assert runner.uses_spec_dispatch

    def test_experiment_runner_accepts_spec(self, small_imdb_spec, spec_runner_parts):
        _, workload, split = spec_runner_parts
        runner = ExperimentRunner(small_imdb_spec, workload)
        result = runner.run_method("postgres", split)
        assert result.method == "postgres"

    def test_payload_is_scale_independent_and_small(self, small_imdb_spec, spec_runner_parts):
        _, workload, split = spec_runner_parts
        sizes = {}
        for scale in (0.25, 1.0):
            runner = ParallelExperimentRunner(small_imdb_spec.with_scale(scale), workload)
            task = runner.tasks_for(("postgres",), [split])[0]
            sizes[scale] = len(pickle.dumps(runner.spec_payload(task)))
        assert all(size < 10 * 1024 for size in sizes.values())
        assert sizes[0.25] == sizes[1.0]

    def test_specless_database_has_no_spec_dispatch(self, spec_runner_parts):
        _, workload, split = spec_runner_parts
        database = generate_imdb(scale=0.25, seed=7, config=SIMULATION_CONFIG)
        runner = ParallelExperimentRunner(database, workload)
        assert not runner.uses_spec_dispatch
        with pytest.raises(ExperimentError):
            runner.spec_payload(runner.tasks_for(("postgres",), [split])[0])

    def test_modified_workload_under_registered_name_rejected(
        self, small_imdb_spec, spec_runner_parts
    ):
        """A hand-built workload sharing a registered name must not be silently
        replaced by the canonical rebuild in workers — it is rejected instead."""
        _, workload, split = spec_runner_parts
        lookalike = workload.subset(["1a", "1b", "2a", "2b", "3a"], name="job")
        runner = ParallelExperimentRunner(small_imdb_spec, lookalike)
        assert runner.uses_spec_dispatch  # name-registered, so payloads build...
        payload = runner.spec_payload(runner.tasks_for(("postgres",), [split])[0])
        with pytest.raises(ExperimentError, match="fingerprint mismatch"):
            execute_spec_payload_with_identity(payload)  # ...but the worker-side guard refuses

    def test_worker_workload_rebuilt_once_per_process(
        self, small_imdb_spec, spec_runner_parts, monkeypatch
    ):
        """Task 2..N of a grid must reuse the worker's memoized workload."""
        from repro.runtime import parallel

        _, workload, split = spec_runner_parts
        runner = ParallelExperimentRunner(small_imdb_spec, workload)
        payloads = [
            runner.spec_payload(task)
            for task in runner.tasks_for(("postgres",), [split], repeats=2)
        ]
        parallel._rebuilt_workload.cache_clear()
        rebuilds: list[int] = []
        real_build = parallel.build_workload
        monkeypatch.setattr(
            parallel,
            "build_workload",
            lambda *args: rebuilds.append(1) or real_build(*args),
        )
        for payload in payloads:  # run worker entry point in-process
            parallel.execute_spec_payload_with_identity(payload)
        assert len(rebuilds) == 1

    def test_worker_rebuild_in_spawned_process_identical(self, small_imdb_spec, spec_runner_parts):
        """A cold interpreter (empty registry) rebuilds and matches exactly."""
        _, workload, split = spec_runner_parts
        runner = ParallelExperimentRunner(small_imdb_spec, workload)
        task = runner.tasks_for(("postgres",), [split])[0]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            remote = pool.submit(_result_in_child, runner.spec_payload(task)).result()
        assert _json(remote) == _json(runner.run_task(task))
