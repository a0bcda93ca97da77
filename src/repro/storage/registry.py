"""Per-process memo of materialized databases, keyed by spec fingerprint.

The memo is the receiving end of spec-based dispatch: a worker process handed
a :class:`~repro.storage.spec.DatabaseSpec` asks its process registry for the
database and gets either the instance it already built (every task of a grid
shares one build) or a freshly built one.  One lock guards the memo and is
held across a build, so a spec is built *at most once* per process however
many threads ask for it.  No caller builds two specs at once, so serializing
builds costs nothing.

The memo keeps the :data:`MAX_DATABASES` most recently used databases, which
keeps multi-scale sweeps (e.g. the covariate-shift study building IMDB and
IMDB-50% at several scales) from accumulating every instance ever touched.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Union

from repro.storage.spec import DatabaseSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database

#: Distinct materialized databases one registry keeps.
MAX_DATABASES = 8


class DatabaseRegistry:
    """Spec-fingerprint -> :class:`Database` LRU, each spec built once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Database]" = OrderedDict()

    def get(self, spec: DatabaseSpec) -> "Database":
        """The materialized database for ``spec`` (built on first request)."""
        fingerprint = spec.fingerprint()
        with self._lock:
            database = self._entries.get(fingerprint)
            if database is not None:
                self._entries.move_to_end(fingerprint)
                return database
            database = self._entries[fingerprint] = spec.build()
            while len(self._entries) > MAX_DATABASES:
                self._entries.popitem(last=False)
            return database

    def contains(self, spec: DatabaseSpec) -> bool:
        with self._lock:
            return spec.fingerprint() in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The registry spec-based dispatch resolves through.  A sweep worker, forked
#: from the coordinator, inherits its entries and builds any other spec on
#: first use.
_PROCESS_REGISTRY = DatabaseRegistry()


def get_process_registry() -> DatabaseRegistry:
    """This process's database registry."""
    return _PROCESS_REGISTRY


def resolve_database(source: Union["Database", DatabaseSpec]) -> "Database":
    """Materialize ``source`` if it is a spec; pass databases through."""
    if isinstance(source, DatabaseSpec):
        return _PROCESS_REGISTRY.get(source)
    return source
