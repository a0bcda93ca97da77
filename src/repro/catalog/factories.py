"""The database generators a :class:`~repro.storage.spec.DatabaseSpec` can name.

A spec names a generator id from :data:`GENERATORS` and carries ``(scale,
seed, config)`` plus any extra keyword parameters; :func:`build_from_spec`
turns it back into a materialized :class:`~repro.storage.database.Database`.
This indirection is what lets the experiment runtime ship a few-hundred-byte
spec to a worker process instead of pickling gigabyte-scale table data.

Generators must be **deterministic**: the same spec must produce bit-identical
databases in every process (all of them are driven by seeded numpy
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

#: Generator id -> ``generator(scale=, seed=, config=, **params)``.
GENERATORS: dict[str, Callable[..., Database]] = {
    "imdb": generate_imdb,
    "imdb-half": generate_imdb_half,
    "stack": generate_stack,
    "synthetic": generate_synthetic,
}


def build_from_spec(spec: DatabaseSpec) -> Database:
    """Materialize a database from its spec (fresh build, no memoization).

    The returned instance carries ``database.spec = spec`` so downstream
    layers (the parallel runtime in particular) can recover the recipe from
    the object and ship it instead of the data.
    """
    try:
        generator = GENERATORS[spec.generator]
    except KeyError as exc:
        raise CatalogError(
            f"unknown database generator {spec.generator!r}; known: {sorted(GENERATORS)}"
        ) from exc
    database = generator(scale=spec.scale, seed=spec.seed, config=spec.config, **spec.params_dict)
    database.spec = spec
    return database
