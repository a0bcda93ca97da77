"""Shared fixtures: small synthetic databases, workloads and environments."""

from __future__ import annotations

import time

import pytest

from repro.catalog.imdb import generate_imdb, imdb_schema
from repro.catalog.stack import generate_stack
from repro.config import SIMULATION_CONFIG
from repro.lqo.base import LQOEnvironment
from repro.workloads import build_job_workload, build_stack_workload

#: Small scale keeps the whole suite fast while preserving skew and fan-out.
TEST_SCALE = 0.25


@pytest.fixture(scope="session")
def imdb_db():
    """Session-scoped synthetic IMDB database."""
    return generate_imdb(scale=TEST_SCALE, seed=7, config=SIMULATION_CONFIG)


@pytest.fixture(scope="session")
def stack_db():
    """Session-scoped synthetic StackExchange database."""
    return generate_stack(scale=TEST_SCALE, seed=11, config=SIMULATION_CONFIG)


@pytest.fixture(scope="session")
def job_workload(imdb_db):
    """The 113-query JOB-style workload bound against the IMDB schema."""
    return build_job_workload(imdb_db.schema)


@pytest.fixture(scope="session")
def stack_workload(stack_db):
    return build_stack_workload(stack_db.schema)


@pytest.fixture(scope="session")
def schema_only():
    """IMDB schema without any data (for binder/encoder structural tests)."""
    return imdb_schema()


@pytest.fixture()
def env(imdb_db):
    """A fresh optimizer environment per test (buffer pool state isolated)."""
    return LQOEnvironment(imdb_db, seed=0)


@pytest.fixture(scope="session")
def session_env(imdb_db):
    """A shared environment for read-only tests that need trained-ish models."""
    return LQOEnvironment(imdb_db, seed=0)


@pytest.fixture()
def slow_tasks(monkeypatch):
    """``slow_tasks(seconds)``: every distributed task run after the call
    first sleeps that long.

    Local sweep workers fork from the test's process, so they inherit the
    patch.  A test that acts while a sweep runs (at its first progress
    snapshot, say) holds the sweep open with it: a forked worker otherwise
    finishes a small grid within one progress interval.
    """
    from repro.runtime import parallel

    execute = parallel.execute_spec_payload_with_identity

    def hold(seconds: float) -> None:
        def held(payload):
            time.sleep(seconds)
            return execute(payload)

        monkeypatch.setattr(parallel, "execute_spec_payload_with_identity", held)

    return hold
