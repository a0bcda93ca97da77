"""Set-up pieces the workloads share: timed database builds, query order, plan checks."""

from __future__ import annotations

import itertools
import pickle
import random
import socket
import time

from perfbench.harness import p50_or_zero
from perfbench.trace import Tracer
from repro.catalog.factories import build_from_spec
from repro.runtime import netqueue
from repro.runtime.fingerprint import stable_seed
from repro.storage.database import Database, build_database
from repro.storage.spec import DatabaseSpec


def timed_build(spec: DatabaseSpec, layers: dict[str, float]) -> Database:
    """Build ``spec`` afresh, charging ``catalog.generate_s`` and ``storage.build_s``.

    ``build_from_spec`` generates the tables and then constructs the
    ``Database`` (indexes, statistics) in one call; constructing it a second
    time from the generated tables gives the storage share, the rest is the
    generator's.
    """
    started = time.perf_counter()
    database = build_from_spec(spec)
    built = time.perf_counter()
    tables = {name: database.table_data(name) for name in database.table_names()}
    build_database(database.schema, tables, database.config, database.name)
    storage_s = time.perf_counter() - built
    layers["storage.build_s"] = layers.get("storage.build_s", 0.0) + storage_s
    layers["catalog.generate_s"] = layers.get("catalog.generate_s", 0.0) + (built - started) - storage_s
    return database


def shuffled(items: list, seed: int) -> list:
    """``items`` in the order ``--seed`` asks for (same seed, same order)."""
    ordered = list(items)
    random.Random(seed).shuffle(ordered)
    return ordered


def noise_seed(query_id: str) -> int:
    """Seed of the simulated-timing noise stream for one query.

    The timing model draws its measurement noise from one stream per engine,
    so a query's simulated time would depend on how many executions ran before
    it.  Reseeding per query makes simulated time a function of the query and
    its plan alone: the same in every pass, query order and seed.
    """
    return stable_seed("perfbench", query_id)


def unequal_pickles(first: dict, second: dict) -> list[str]:
    """Keys present in both mappings whose values do not pickle to the same bytes."""
    return [
        key for key in first.keys() & second.keys()
        if pickle.dumps(first[key]) != pickle.dumps(second[key])
    ]


def plan_metrics(tracer: Tracer, plans: list) -> dict[str, float]:
    """``plans.*`` metrics: pickle every plan under a span and count its nodes."""
    sizes = []
    nodes = 0
    for plan in plans:
        with tracer.span("plans.pickle"):
            blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        sizes.append(len(blob))
        nodes += plan.node_count()
    return {
        "plans.nodes_total": nodes,
        "plans.pickle_bytes_p50": p50_or_zero(sizes),
        "plans.pickle_us_p50": p50_or_zero(tracer.durations_by_name()["plans.pickle"], 1e6),
    }


#: Frames sent through the socket pair by :func:`frame_metrics`.
CODEC_FRAMES = 200


def frame_metrics(tracer: Tracer, payloads: list, secret: str) -> dict[str, float]:
    """Cost of the signed frame codec alone, over a socket pair.

    ``send_frame`` (pickle + HMAC sign) and ``recv_frame`` (verify + unpickle)
    each get a span per recorded payload; no server or network is involved.
    """
    key = netqueue.resolve_queue_secret(secret)
    left, right = socket.socketpair()
    try:
        left.settimeout(5.0)
        right.settimeout(5.0)
        for payload in itertools.islice(itertools.cycle(payloads), CODEC_FRAMES if payloads else 0):
            with tracer.span("runtime.send_frame"):
                netqueue.send_frame(left, payload, secret=key)
            with tracer.span("runtime.recv_frame"):
                netqueue.recv_frame(right, secret=key)
    finally:
        left.close()
        right.close()
    durations = tracer.durations_by_name()
    return {
        "runtime.frame_send_us_p50": p50_or_zero(durations["runtime.send_frame"], 1e6),
        "runtime.frame_recv_us_p50": p50_or_zero(durations["runtime.recv_frame"], 1e6),
    }
