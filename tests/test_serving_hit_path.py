"""Tests of the plan server's hit path: bind memo, one cache key, its generation.

A repeat request skips ``bind_sql`` (text → ``BoundQuery`` memo) and
fingerprints once; neither shortcut may change a served byte, survive as a
wrong answer for a text that does not bind, or outgrow the plan cache's bound.
"""

import dataclasses
import pickle

import pytest

from repro.config import SIMULATION_CONFIG
from repro.errors import PlanServiceError
from repro.optimizer.planner import Planner
from repro.runtime import planserver
from repro.runtime.plan_cache import PlanCache
from repro.runtime.planclient import PlanClient
from repro.runtime.planserver import PlanServer
from repro.sql.binder import bind_sql
from repro.storage.registry import get_process_registry
from repro.storage.spec import DatabaseSpec

SECRET = "hit-path-secret"
THREE_WAY = (
    "SELECT COUNT(*) FROM title AS t "
    "JOIN movie_companies AS mc ON t.id = mc.movie_id "
    "JOIN movie_keyword AS mk ON t.id = mk.movie_id"
)
TEXTS = [
    "SELECT COUNT(*) FROM title AS t JOIN movie_companies AS mc ON t.id = mc.movie_id",
    "SELECT COUNT(*) FROM title AS t JOIN movie_keyword AS mk ON t.id = mk.movie_id",
    "SELECT COUNT(*) FROM title AS t JOIN cast_info AS ci ON t.id = ci.movie_id",
    THREE_WAY,
]
UNBINDABLE = "SELECT COUNT(*) FROM no_such_table AS x"


@pytest.fixture(scope="module")
def database():
    spec = DatabaseSpec.create("imdb", scale=0.1, seed=42, config=SIMULATION_CONFIG)
    return get_process_registry().get(spec)


@pytest.fixture()
def server(database):
    server = PlanServer(database, secret=SECRET)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    client = PlanClient(server.url, client_id="test", secret=SECRET, retries=0)
    yield client
    client.close()


@pytest.fixture()
def bind_calls(monkeypatch):
    """Texts handed to ``bind_sql`` by the server, in order."""
    texts: list[str] = []

    def counting_bind_sql(sql, schema):
        texts.append(sql)
        return bind_sql(sql, schema)

    monkeypatch.setattr(planserver, "bind_sql", counting_bind_sql)
    return texts


def direct_wire_bytes(database, sql: str) -> bytes:
    """A direct ``Planner``'s plan after the one serialization hop a served plan has had."""
    plan = Planner(database, plan_cache=PlanCache()).plan(bind_sql(sql, database.schema))
    return pickle.dumps(pickle.loads(pickle.dumps(plan)))


class TestBindMemo:
    def test_memo_hit_and_first_contact_serve_the_same_bytes(self, client, database, bind_calls):
        first = client.plan(THREE_WAY)
        again = client.plan(THREE_WAY)
        assert (first.cache_hit, again.cache_hit) == (False, True)
        assert bind_calls == [THREE_WAY]  # the second request never reached the binder
        assert pickle.dumps(first.plan) == pickle.dumps(again.plan) == direct_wire_bytes(database, THREE_WAY)

    def test_after_invalidate_the_memoised_binding_is_replanned(self, client, database, bind_calls):
        before = client.plan(THREE_WAY)
        client.invalidate()
        after = client.plan(THREE_WAY)
        assert after.cache_hit is False and after.generation == before.generation + 1
        assert bind_calls == [THREE_WAY]  # binding reads no statistics: the memo survives a bump
        assert pickle.dumps(after.plan) == direct_wire_bytes(database, THREE_WAY)
        assert client.stats()["planned"] == 2

    def test_a_text_that_fails_to_bind_is_refused_every_time_and_never_memoised(
        self, server, client, bind_calls
    ):
        for _ in range(3):
            with pytest.raises(PlanServiceError, match="BindingError"):
                client.plan(UNBINDABLE)
        assert bind_calls == [UNBINDABLE] * 3
        assert UNBINDABLE not in server._bound
        responses = [server._dispatch({"op": "plan", "sql": UNBINDABLE}, "peer") for _ in range(2)]
        assert [response["kind"] for response in responses] == ["sql", "sql"]
        assert server.stats().errors == 5

    def test_memo_is_bounded_by_the_plan_cache(self, database):
        server = PlanServer(database, secret=SECRET, plan_cache=PlanCache(max_entries=2))
        try:
            for sql in TEXTS + TEXTS[:1]:
                assert server._dispatch({"op": "plan", "sql": sql}, "peer")["ok"]
                assert len(server._bound) <= 2
            assert list(server._bound) == [TEXTS[-1], TEXTS[0]]  # least recently used went first
        finally:
            server.close()

    def test_a_disabled_cache_disables_the_memo(self, database, bind_calls):
        server = PlanServer(database, secret=SECRET, plan_cache=PlanCache(max_entries=0))
        try:
            replies = [server._dispatch({"op": "plan", "sql": THREE_WAY}, "peer") for _ in range(2)]
            assert [reply["cache_hit"] for reply in replies] == [False, False]
            assert len(server._bound) == 0 and bind_calls == [THREE_WAY, THREE_WAY]
        finally:
            server.close()


class TestOneKeyPerRequest:
    def test_cache_key_is_built_once_per_request(self, server, client, monkeypatch):
        client.plan(THREE_WAY)
        calls = {"n": 0}
        original = Planner.cache_key

        def counting_cache_key(self, query, hints):
            calls["n"] += 1
            return original(self, query, hints)

        monkeypatch.setattr(Planner, "cache_key", counting_cache_key)
        assert client.plan(THREE_WAY).cache_hit is True
        assert calls["n"] == 1
        client.invalidate()
        calls["n"] = 0
        assert client.plan(THREE_WAY).cache_hit is False
        assert calls["n"] == 1
        stats = client.stats()["cache"]
        assert stats["hits"] + stats["misses"] == 3  # each request accounted exactly once

    def test_generation_is_the_one_the_plan_was_looked_up_under(self, server, client, monkeypatch):
        """An ``invalidate`` landing between the lookup and the reply must not
        label the pre-bump plan with the post-bump generation."""
        planner = server._default_planner
        original = planner.plan_with_info

        def bump_then_plan(*args, **kwargs):
            monkeypatch.setattr(planner, "plan_with_info", original)  # bump once
            server.invalidate()
            return original(*args, **kwargs)

        monkeypatch.setattr(planner, "plan_with_info", bump_then_plan)
        raced = client.plan(THREE_WAY)
        assert raced.generation == 0 and raced.cache_hit is False
        settled = client.plan(THREE_WAY)
        # The raced plan was stored under generation 0: it is never served at 1.
        assert settled.generation == 1 and settled.cache_hit is False
        assert client.plan(THREE_WAY).cache_hit is True

    def test_equal_configs_built_separately_share_entries(self, database):
        cache = PlanCache()
        config = dataclasses.replace(SIMULATION_CONFIG, join_collapse_limit=1)
        twin = dataclasses.replace(SIMULATION_CONFIG, join_collapse_limit=1)
        assert config is not twin
        query = bind_sql(THREE_WAY, database.schema)
        first, second = (Planner(database, config=c, plan_cache=cache) for c in (config, twin))
        key = first.cache_key(query)
        assert key == second.cache_key(query)
        assert key[1] == config.fingerprint()  # unchanged to the last character
        assert first.plan_with_info(query) is second.plan_with_info(query)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        other = Planner(database, config=SIMULATION_CONFIG, plan_cache=cache)
        assert other.cache_key(query) != key

    def test_fingerprint_memo_does_not_ride_on_the_config(self, database):
        config = dataclasses.replace(SIMULATION_CONFIG, join_collapse_limit=1)
        before = pickle.dumps(config)
        Planner(database, config=config, plan_cache=PlanCache()).cache_key(
            bind_sql(THREE_WAY, database.schema)
        )
        assert pickle.dumps(config) == before  # task payloads carry configs: no memo on them


def test_stats_frame_reports_connections(server, client):
    client.ping()
    other = PlanClient(server.url, secret=SECRET, retries=0)
    other.ping()
    other.close()
    assert client.stats()["connections"] == 2
    assert server.stats().to_dict()["connections"] == 2
