"""Canonical fingerprints for queries, configurations and hint sets.

Every cacheable artefact of the experiment runtime — planner results in the
:class:`~repro.runtime.plan_cache.PlanCache`, method runs in the
:class:`~repro.runtime.result_store.ResultStore` — is keyed by *content*, not
by object identity: the same SQL bound twice, or an equal
:class:`~repro.config.PostgresConfig` built in another process, must map to the
same key.  All fingerprints are SHA-256 based, so they are stable across
interpreter restarts (``hash()`` is salted per process and must not be used).
"""

from __future__ import annotations

import hashlib

from repro.sql.binder import BoundQuery

#: Attribute used to memoize a query's fingerprint on the bound object.
#: The ``_repro_`` prefix is load-bearing: ``BoundQuery.__getstate__`` strips
#: every ``_repro_*`` attribute on pickling, so a memo computed in one
#: process is never trusted across process/host boundaries (task payloads,
#: serving frames) — the receiver recomputes from content on first use.
_QUERY_FP_ATTR = "_repro_fingerprint"


def stable_hash(payload: str, length: int = 16) -> str:
    """Hex digest of ``payload`` truncated to ``length`` characters."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


def stable_seed(*parts: object, bits: int = 31) -> int:
    """A deterministic non-negative integer seed derived from ``parts``.

    Used for per-task seeding of the parallel runner: the seed depends only on
    the task's identity (method, split, repeat), never on scheduling order.
    """
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**bits)


def canonical_query_text(query: BoundQuery) -> str:
    """Order-independent canonical rendering of a bound query.

    Relations, join predicates and filters are sorted so that semantically
    identical queries written in different clause orders fingerprint equally.
    The decorating statement (GROUP BY / ORDER BY / select list) participates
    because it changes the produced plan.
    """
    relations = ",".join(sorted(f"{r.alias}={r.table}" for r in query.relations))
    joins = ",".join(
        sorted(
            "=".join(
                sorted((f"{j.left_alias}.{j.left_column}", f"{j.right_alias}.{j.right_column}"))
            )
            for j in query.joins
        )
    )
    filters = ",".join(sorted(str(f) for f in query.filters))
    statement = str(query.statement) if query.statement is not None else ""
    return f"schema:{query.schema.name}|from:{relations}|where:{joins}|filters:{filters}|stmt:{statement}"


def query_fingerprint(query: BoundQuery) -> str:
    """Content fingerprint of a bound query (memoized on the instance)."""
    cached = getattr(query, _QUERY_FP_ATTR, None)
    if cached is not None:
        return cached
    fingerprint = stable_hash(canonical_query_text(query))
    setattr(query, _QUERY_FP_ATTR, fingerprint)
    return fingerprint
