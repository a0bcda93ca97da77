"""A shared LRU cache for planner results.

Planning is deterministic for a given (query, configuration, hint set), so the
simulated DBMS can reuse a produced plan whenever the same request recurs —
which it constantly does: the hot-cache protocol plans every query once but
executes it three times per repetition, ablations sweep knobs around a fixed
workload, LQO training loops re-plan the same training queries every
iteration, and the plan-serving control plane (:mod:`repro.runtime.planserver`)
answers entire client streams out of one shared cache.  Entries are keyed by
content fingerprints (:mod:`repro.runtime.fingerprint`) plus a
planner-provided scope covering the database identity and GEQO parameters, so
any knob, hint, database or enumeration change maps to a different entry —
sharing one cache across differently-configured planners is then safe.

Long-lived sharing needs invalidation: a catalog or statistics refresh changes
what the *correct* plan is without changing any fingerprint.  The cache
therefore keeps a **generation counter** per scope (plus one global
generation) and embeds it in every key: :meth:`PlanCache.invalidate_scope`
bumps the counter, so every entry produced before the bump simply stops
matching — no entry is ever served across a generation boundary, and the
stale ones age out through normal LRU eviction (a scoped bump also purges
them eagerly).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plans.hints import HintSet
from repro.runtime.fingerprint import query_fingerprint
from repro.sql.binder import BoundQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from repro.optimizer.planner import PlannerResult

#: Default number of cached planner results (a PlannerResult is small; the
#: dominant memory cost is the plan tree, a few KB per entry).
DEFAULT_CACHE_ENTRIES = 1024

#: Index of the scope component inside a full cache key (see ``key_for``).
_KEY_SCOPE_INDEX = 3


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`PlanCache`.

    Counters are mutated only under the owning cache's lock; the stats object
    itself carries no synchronization — read it through
    :meth:`PlanCache.stats_snapshot` (or :meth:`PlanCache.describe`) when the
    cache is shared across threads.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Generation bumps performed through ``invalidate_scope`` (each one
    #: retires every entry of the bumped scope — or of all scopes).
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def copy(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
        )


class PlanCache:
    """Thread-safe LRU cache mapping plan-request fingerprints to planner results.

    A ``max_entries`` of ``0`` disables caching entirely (every lookup misses
    and nothing is stored), which keeps the planner code path uniform.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError("PlanCache max_entries must be >= 0")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, "PlannerResult"] = OrderedDict()
        #: Catalog/statistics generation per scope; missing scopes are at 0.
        self._scope_generations: dict[str, int] = {}
        #: Global generation: bumping it invalidates every scope at once.
        self._global_generation = 0
        self._lock = threading.Lock()

    def __reduce__(self) -> tuple:
        # A cache crosses a process boundary (a pickled runner) as an empty
        # one of the same capacity: entries, counters and the lock are local.
        return (PlanCache, (self.max_entries,))

    # ------------------------------------------------------------------ keying
    def key_for(
        self,
        query: BoundQuery,
        config_fingerprint: str,
        hints: HintSet,
        scope: str = "",
    ) -> tuple:
        """Full cache key of one planning request.

        ``config_fingerprint`` is the planning configuration's
        ``PostgresConfig.fingerprint()``.  ``scope`` disambiguates everything the request fingerprints cannot
        see — the planner passes a digest of its database identity and GEQO
        parameters, so one cache can serve many planners.  The scope's
        current generation (see :meth:`invalidate_scope`) is embedded in the
        key, so a bump retires every earlier entry without touching them.
        """
        return (
            query_fingerprint(query), config_fingerprint, hints.fingerprint(),
            scope, self.generation(scope),
        )

    @staticmethod
    def key_generation(key: tuple) -> int:
        """The generation a :meth:`key_for` key was built under (its last component)."""
        return key[-1]

    def generation(self, scope: str = "") -> int:
        """Current effective generation of ``scope`` (global + per-scope)."""
        with self._lock:
            return self._generation_locked(scope)

    def _generation_locked(self, scope: str) -> int:
        """Effective generation; caller holds the lock (or owns the cache)."""
        return self._global_generation + self._scope_generations.get(scope, 0)

    # ------------------------------------------------------------------ access
    def get(self, key: tuple) -> "PlannerResult | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: tuple) -> "PlannerResult | None":
        """Presence probe: like :meth:`get` but touches neither stats nor LRU.

        The serving layer uses this to route cache misses into its planning
        critical section without double-counting the request — exactly one
        :meth:`get` (inside the planner) accounts for it afterwards.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, result: "PlannerResult") -> None:
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------ management
    def invalidate_scope(self, scope: str | None = None) -> int:
        """Bump a generation counter, retiring every entry produced before it.

        With a ``scope`` (a planner's cache-scope digest) only that scope's
        entries are invalidated — its keys stop matching and the stored
        entries are purged eagerly.  With ``None`` the *global* generation is
        bumped: every scope is invalidated at once (a catalog/statistics
        refresh the service cannot attribute to one database) and the whole
        entry map is dropped.  Returns the scope's new effective generation.
        Hit/miss counters survive, so a hit-rate drop after a bump stays
        visible in the stats.
        """
        with self._lock:
            self.stats.invalidations += 1
            if scope is None:
                self._global_generation += 1
                self._entries.clear()
                return self._global_generation
            self._scope_generations[scope] = self._scope_generations.get(scope, 0) + 1
            for key in [k for k in self._entries if k[_KEY_SCOPE_INDEX] == scope]:
                del self._entries[key]
            return self._generation_locked(scope)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters and generations are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats_snapshot(self) -> CacheStats:
        """A consistent point-in-time copy of the counters (taken under the lock)."""
        with self._lock:
            return self.stats.copy()

    def describe(self) -> str:
        with self._lock:
            stats = self.stats.copy()
            entries = len(self._entries)
        return (
            f"PlanCache({entries}/{self.max_entries} entries, "
            f"{stats.hits} hits / {stats.misses} misses, "
            f"hit rate {stats.hit_rate:.1%}, {stats.evictions} evictions, "
            f"{stats.invalidations} invalidations)"
        )
