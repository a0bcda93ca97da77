"""Registration of database generators for spec-based construction.

Every generator callable registered here can be addressed by a
:class:`~repro.storage.spec.DatabaseSpec`: the spec names the generator id and
carries ``(scale, seed, config)`` plus any extra keyword parameters, and
:func:`build_from_spec` turns it back into a materialized
:class:`~repro.storage.database.Database`.  This indirection is what lets the
experiment runtime ship a few-hundred-byte spec to a worker process instead of
pickling gigabyte-scale table data.

Factories must be **deterministic**: the same spec must produce bit-identical
databases in every process (all bundled generators are driven by seeded numpy
generators, so this holds by construction).
"""

from __future__ import annotations

from typing import Callable

from repro.catalog.datagen import generate_synthetic
from repro.catalog.imdb import generate_imdb, generate_imdb_half
from repro.catalog.stack import generate_stack
from repro.errors import CatalogError
from repro.storage.database import Database
from repro.storage.spec import DatabaseSpec


_FACTORIES: dict[str, Callable[..., Database]] = {}


def register_database_factory(
    name: str, factory: Callable[..., Database], overwrite: bool = False
) -> None:
    """Register ``factory`` under the generator id ``name``.

    Third-party schemas plug in here; afterwards any ``DatabaseSpec`` naming
    ``name`` can be materialized in any process that performed the same
    registration (register at import time of a module both sides load).
    """
    if not overwrite and name in _FACTORIES:
        raise CatalogError(f"database factory {name!r} is already registered")
    _FACTORIES[name] = factory


def database_factory(name: str) -> Callable[..., Database]:
    """Look up a registered factory by generator id."""
    try:
        return _FACTORIES[name]
    except KeyError as exc:
        raise CatalogError(
            f"unknown database generator {name!r}; registered: {registered_generators()}"
        ) from exc


def registered_generators() -> list[str]:
    """Sorted ids of every registered generator."""
    return sorted(_FACTORIES)


def build_from_spec(spec: DatabaseSpec) -> Database:
    """Materialize a database from its spec (fresh build, no memoization).

    The returned instance carries ``database.spec = spec`` so downstream
    layers (the parallel runtime in particular) can recover the recipe from
    the object and ship it instead of the data.
    """
    factory = database_factory(spec.generator)
    database = factory(scale=spec.scale, seed=spec.seed, config=spec.config, **spec.params_dict)
    database.spec = spec
    return database


# ---------------------------------------------------------------------------
# Bundled generators.
# ---------------------------------------------------------------------------

register_database_factory("imdb", generate_imdb)
register_database_factory("imdb-half", generate_imdb_half)
register_database_factory("stack", generate_stack)
register_database_factory("synthetic", generate_synthetic)
