"""Tests of the plan-serving control plane and the PR-6 correctness pass.

Covers:

* served plans are byte-identical (under ``pickle.dumps``) to a direct
  in-process ``Planner`` call for the same (query, config, hints),
* cache-hit metadata and the shared cross-request cache,
* HMAC authentication: an unauthenticated client is rejected *before*
  ``pickle.loads`` (poisoned-unpickler proof), a mis-keyed one fails loudly,
* admission control: explicit reject frames (``PlanRejected``) instead of
  silent stalls, per-client and global limits, opt-in client backoff,
* generation-bump invalidation: a catalog/statistics bump retires every
  pre-bump plan without restarting the server,
* ``PlanCache`` under thread hammering: no lost counter updates, requests
  always equal hits + misses, and a generation bump never serves a pre-bump
  entry,
* the ``BoundQuery`` fingerprint-memo pickle-hygiene regression.
"""

import dataclasses
import json
import pickle
import threading

import pytest

from repro.config import SIMULATION_CONFIG
from repro.errors import PlanRejected, PlanServiceError
from repro.optimizer.planner import Planner
from repro.plans.hints import HintSet
from repro.runtime import netqueue
from repro.runtime.fingerprint import query_fingerprint
from repro.runtime.netqueue import QueueAuthError
from repro.runtime.plan_cache import PlanCache
from repro.runtime.planclient import PlanClient
from repro.runtime.planserver import PlanServer, PlanServerStats, main as planserver_main
from repro.sql.binder import bind_sql
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec

SECRET = "plan-serving-test-secret"

TWO_WAY = (
    "SELECT COUNT(*) FROM title AS t "
    "JOIN movie_companies AS mc ON t.id = mc.movie_id"
)
THREE_WAY = (
    "SELECT COUNT(*) FROM title AS t "
    "JOIN movie_companies AS mc ON t.id = mc.movie_id "
    "JOIN movie_keyword AS mk ON t.id = mk.movie_id"
)


@pytest.fixture(scope="module")
def database():
    spec = DatabaseSpec.create("imdb", scale=0.1, seed=42, config=SIMULATION_CONFIG)
    return get_process_registry().get(spec)


def wire_bytes(plan) -> bytes:
    """Pickle bytes of a plan after one serialization hop.

    The served plan has crossed the wire (one pickle round trip) already;
    CPython's unpickler interns one-character strings, which can only *add*
    object sharing to the graph.  Normalizing the direct plan through the
    same hop makes the byte-identity comparison exact.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(plan)))


@pytest.fixture()
def server(database):
    server = PlanServer(database, secret=SECRET)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    with PlanClient(server.url, client_id="test", secret=SECRET, retries=0) as client:
        yield client


# ---------------------------------------------------------------------------
# Serving correctness
# ---------------------------------------------------------------------------


class TestServedPlans:
    def test_ping(self, client, database):
        assert client.ping() == database.name

    def test_served_plan_is_byte_identical_to_direct_planner(self, client, database):
        served = client.plan(THREE_WAY)
        direct = Planner(database, plan_cache=PlanCache())  # private cache: no sharing
        result = direct.plan_with_info(bind_sql(THREE_WAY, database.schema))
        assert pickle.dumps(served.plan) == wire_bytes(result.plan)
        assert served.strategy == result.strategy
        assert served.estimated_cost == result.estimated_cost
        assert served.planning_time_ms == result.planning_time_ms

    def test_served_plan_honours_config_and_hints(self, client, database):
        config = dataclasses.replace(SIMULATION_CONFIG, join_collapse_limit=1)
        hints = HintSet(leading=("mc", "t"), join_order_exact=True, name="forced")
        served = client.plan(TWO_WAY, hints=hints, config=config)
        direct = Planner(database, config=config, plan_cache=PlanCache())
        result = direct.plan_with_info(bind_sql(TWO_WAY, database.schema), hints)
        assert pickle.dumps(served.plan) == wire_bytes(result.plan)
        assert served.strategy == result.strategy

    def test_second_request_is_a_shared_cache_hit(self, server, client):
        first = client.plan(THREE_WAY)
        assert first.cache_hit is False
        second = client.plan(THREE_WAY)
        assert second.cache_hit is True
        # A *different* client shares the same server-side cache.
        with PlanClient(server.url, client_id="other", secret=SECRET, retries=0) as other:
            assert other.plan(THREE_WAY).cache_hit is True
        stats = client.stats()
        assert stats["served"] == 3
        assert stats["planned"] == 1
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == 3

    def test_invalid_sql_is_an_error_frame_not_a_crash(self, client):
        with pytest.raises(PlanServiceError, match="SQLSyntaxError"):
            client.plan("SELECT FROM FROM nope")
        with pytest.raises(PlanServiceError, match="BindingError"):
            client.plan("SELECT COUNT(*) FROM no_such_table AS x")
        with pytest.raises(PlanServiceError, match="non-empty 'sql'"):
            client.plan("   ")

    def test_invalid_hints_are_a_planning_error(self, client):
        bad = HintSet(leading=("zz", "t"), join_order_exact=True)
        with pytest.raises(PlanServiceError, match="HintError"):
            client.plan(TWO_WAY, hints=bad)

    def test_server_errors_still_count_and_do_not_leak_inflight(self, server, client):
        with pytest.raises(PlanServiceError):
            client.plan("SELECT broken")
        stats = server.stats()
        assert stats.errors == 1
        assert stats.inflight == 0


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------


class TestServingAuth:
    def test_unauthenticated_client_rejected_before_unpickling(
        self, server, client, monkeypatch
    ):
        """An unsigned frame must be turned away while still opaque bytes."""

        def poisoned_loads(blob):
            raise AssertionError("pickle.loads reached with an unauthenticated peer")

        monkeypatch.setattr(netqueue.pickle, "loads", poisoned_loads)
        with PlanClient(server.url, secret="", retries=0) as intruder:
            with pytest.raises(QueueAuthError, match="unauthenticated"):
                intruder.plan(TWO_WAY)
        monkeypatch.undo()
        # The server is unharmed and keeps serving keyed clients.
        assert client.ping()
        assert client.stats()["auth_rejects"] == 1

    def test_wrong_secret_rejected_loudly(self, server):
        with PlanClient(server.url, secret="not-the-secret", retries=0) as wrong:
            with pytest.raises(QueueAuthError, match="signature mismatch"):
                wrong.plan(TWO_WAY)
        assert server.stats().auth_rejects == 1


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_overload_gets_an_explicit_reject_frame(self, database, monkeypatch):
        server = PlanServer(
            database, secret=SECRET, max_client_inflight=1, max_total_inflight=1
        )
        try:
            admitted = threading.Event()
            release = threading.Event()
            original = server._plan_admitted

            def slow_plan(request):
                admitted.set()
                assert release.wait(timeout=10)
                return original(request)

            monkeypatch.setattr(server, "_plan_admitted", slow_plan)
            first_result = {}

            def first_request():
                with PlanClient(server.url, client_id="a", secret=SECRET, retries=0) as client:
                    first_result["plan"] = client.plan(TWO_WAY)

            thread = threading.Thread(target=first_request)
            thread.start()
            assert admitted.wait(timeout=10)
            # Slot taken: the next request is rejected explicitly, not queued.
            with PlanClient(server.url, client_id="b", secret=SECRET, retries=0) as rejected:
                with pytest.raises(PlanRejected, match="at capacity") as exc_info:
                    rejected.plan(TWO_WAY)
            assert exc_info.value.retry_after_s > 0
            release.set()
            thread.join(timeout=10)
            assert first_result["plan"].cache_hit is False
            stats = server.stats()
            assert stats.rejected == 1
            assert stats.served == 1
            assert stats.inflight == 0
        finally:
            release.set()
            server.close()

    def test_per_client_limit_is_separate_from_global(self, database):
        server = PlanServer(
            database, secret=SECRET, max_client_inflight=1, max_total_inflight=4
        )
        try:
            assert server._admit("a") is True
            assert server._admit("a") is False  # per-client cap
            assert server._admit("b") is True  # other clients unaffected
            server._release("a")
            assert server._admit("a") is True
            server._release("a")
            server._release("b")
            assert server.stats().inflight == 0
        finally:
            server.close()

    def test_client_opt_in_backoff_retries_rejects(self, server, monkeypatch):
        client = PlanClient(server.url, secret=SECRET, retries=0, reject_retries=2)
        calls = {"n": 0}

        def flaky_request_once(request):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise PlanRejected("busy", retry_after_s=0.001)
            return {"ok": True, "stats": {"served": 7}}

        monkeypatch.setattr(client, "_request_once", flaky_request_once)
        assert client.stats() == {"served": 7}
        assert calls["n"] == 3

    def test_reject_budget_exhaustion_propagates(self, server, monkeypatch):
        client = PlanClient(server.url, secret=SECRET, retries=0, reject_retries=1)

        def always_busy(request):
            raise PlanRejected("busy", retry_after_s=0.001)

        monkeypatch.setattr(client, "_request_once", always_busy)
        with pytest.raises(PlanRejected):
            client.stats()


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_generation_bump_invalidates_without_restart(self, server, client):
        assert client.plan(THREE_WAY).cache_hit is False
        assert client.plan(THREE_WAY).cache_hit is True
        before = client.plan(THREE_WAY).generation

        generations = client.invalidate()
        assert all(gen > 0 for gen in generations.values())

        after = client.plan(THREE_WAY)
        assert after.cache_hit is False  # pre-bump entry is never served
        assert after.generation > before
        assert client.plan(THREE_WAY).cache_hit is True  # re-cached under the new generation
        stats = client.stats()
        assert stats["cache"]["invalidations"] >= 1

    def test_hit_rate_drop_is_visible_in_stats(self, server, client):
        for _ in range(4):
            client.plan(TWO_WAY)
        high = client.stats()["cache"]["hit_rate"]
        client.invalidate()
        client.plan(TWO_WAY)  # forced miss
        low = client.stats()["cache"]["hit_rate"]
        assert low < high


# ---------------------------------------------------------------------------
# Stats frames
# ---------------------------------------------------------------------------


class TestStatsFrames:
    def test_stats_snapshot_round_trips_as_json(self, server, client):
        client.plan(TWO_WAY)
        snapshot = server.stats()
        assert isinstance(snapshot, PlanServerStats)
        decoded = json.loads(snapshot.to_json())
        assert decoded == snapshot.to_dict()
        for key in ("uptime_s", "served", "planned", "cache", "generations", "latency_ms"):
            assert key in decoded
        assert decoded["latency_ms"]["count"] == 1
        assert decoded["latency_ms"]["p50"] > 0
        assert "PlanServer(" in snapshot.describe()
        assert "PlanServer(" in server.describe()

    def test_wire_stats_match_server_stats(self, server, client):
        client.plan(TWO_WAY)
        wire = client.stats()
        local = server.stats().to_dict()
        for key in ("served", "planned", "rejected", "auth_rejects", "errors"):
            assert wire[key] == local[key]

    def test_cli_rejects_unknown_generator(self, capsys):
        assert planserver_main(["--generator", "no-such-generator"]) == 2
        assert "cannot build database" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# PlanCache under concurrency (satellite: locked reads + generation bumps)
# ---------------------------------------------------------------------------


class TestPlanCacheConcurrency:
    def test_no_lost_counter_updates_under_hammering(self):
        cache = PlanCache(max_entries=64)
        threads, per_thread, keyspace = 8, 300, 32
        barrier = threading.Barrier(threads)
        errors = []

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(per_thread):
                    key = ("q%d" % (i % keyspace), "c", "h", "", 0)
                    if cache.get(key) is None:
                        cache.put(key, ("plan", worker, i))
                    if i % 50 == 7:
                        len(cache)
                        cache.describe()
                    if i % 97 == 13:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=30)
        assert not errors
        snapshot = cache.stats_snapshot()
        # Every get() was accounted exactly once, no update was lost.
        assert snapshot.requests == threads * per_thread
        assert snapshot.hits + snapshot.misses == snapshot.requests

    def test_generation_bump_never_serves_a_pre_bump_entry(self):
        cache = PlanCache(max_entries=256)
        scope = "scope-a"
        stop = threading.Event()
        errors = []

        def bumper() -> None:
            while not stop.is_set():
                cache.invalidate_scope(scope)

        def reader_writer() -> None:
            try:
                while not stop.is_set():
                    generation = cache.generation(scope)
                    key = ("q", "c", "h", scope, generation)
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, generation)
                    else:
                        # The key embeds the generation it was stored under:
                        # serving a pre-bump entry would surface a mismatch.
                        assert value == generation
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=bumper)] + [
            threading.Thread(target=reader_writer) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=30)
        timer.cancel()
        assert not errors
        assert cache.stats_snapshot().invalidations > 0

    def test_scoped_bump_spares_other_scopes(self):
        cache = PlanCache()
        key_a = ("q", "c", "h", "scope-a", cache.generation("scope-a"))
        key_b = ("q", "c", "h", "scope-b", cache.generation("scope-b"))
        cache.put(key_a, "plan-a")
        cache.put(key_b, "plan-b")
        cache.invalidate_scope("scope-a")
        assert key_a not in cache  # purged eagerly
        assert cache.get(key_b) == "plan-b"  # untouched scope still serves
        assert ("q", "c", "h", "scope-a", cache.generation("scope-a")) != key_a

    def test_global_bump_retires_every_scope(self):
        cache = PlanCache()
        key = ("q", "c", "h", "scope-a", cache.generation("scope-a"))
        cache.put(key, "plan")
        cache.invalidate_scope(None)
        assert len(cache) == 0
        assert cache.generation("scope-a") == key[4] + 1


# ---------------------------------------------------------------------------
# Fingerprint memo pickle hygiene (satellite)
# ---------------------------------------------------------------------------


class TestFingerprintMemoHygiene:
    def test_memo_is_stripped_on_pickle_and_recomputed(self, database):
        bound = bind_sql(THREE_WAY, database.schema)
        fingerprint = query_fingerprint(bound)
        assert getattr(bound, "_repro_fingerprint") == fingerprint  # memoized
        restored = pickle.loads(pickle.dumps(bound))
        assert not hasattr(restored, "_repro_fingerprint")  # memo never travels
        assert query_fingerprint(restored) == fingerprint  # recomputed from content

    def test_tampered_memo_is_not_trusted_across_pickling(self, database):
        bound = bind_sql(THREE_WAY, database.schema)
        honest = query_fingerprint(bound)
        bound._repro_fingerprint = "deadbeefdeadbeef"  # poisoned sender-side memo
        restored = pickle.loads(pickle.dumps(bound))
        assert query_fingerprint(restored) == honest

    def test_round_tripped_query_plans_identically(self, database):
        bound = bind_sql(THREE_WAY, database.schema)
        query_fingerprint(bound)  # memoize before shipping
        restored = pickle.loads(pickle.dumps(bound))
        planner_a = Planner(database, plan_cache=PlanCache())
        planner_b = Planner(database, plan_cache=PlanCache())
        assert pickle.dumps(planner_a.plan(bound)) == pickle.dumps(planner_b.plan(restored))
