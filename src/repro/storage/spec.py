"""The :class:`DatabaseSpec`: a cheaply picklable recipe for a :class:`Database`.

A spec captures everything needed to *deterministically* rebuild a database —
the registered generator id, the scale factor, the data seed, the DBMS
configuration and any extra generator parameters — in a value object a few
hundred bytes in size.  It is the unit of dispatch of the distributed
experiment runtime: instead of re-pickling the whole in-memory database for
every task (cost growing with database scale), workers receive the spec and
rebuild or reuse the database through their per-process
:class:`~repro.storage.registry.DatabaseRegistry`.

Specs are content-addressed: :meth:`DatabaseSpec.fingerprint` is a SHA-256
digest over every field, stable across processes and interpreter restarts
(``hash()`` is per-process salted and is never used).  Equal specs therefore
map to the same registry slot in every worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.config import PostgresConfig
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog imports storage)
    from repro.storage.database import Database

#: Parameter value types whose ``repr`` is stable enough to fingerprint.
_SCALAR_TYPES = (bool, int, float, str, bytes, type(None))


def _freeze_params(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Canonical (sorted, tuple-of-pairs) rendering of generator kwargs."""
    frozen: list[tuple[str, Any]] = []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
            if not all(isinstance(item, _SCALAR_TYPES) for item in value):
                raise StorageError(
                    f"spec parameter {name!r} must hold scalars, got {value!r}"
                )
        elif not isinstance(value, _SCALAR_TYPES):
            raise StorageError(
                f"spec parameter {name!r} must be a picklable scalar, got {type(value).__name__}"
            )
        frozen.append((name, value))
    return tuple(frozen)


@dataclass(frozen=True)
class DatabaseSpec:
    """Recipe for deterministically (re)building one database instance.

    Attributes:
        generator: id of a factory registered in :mod:`repro.catalog.factories`
            (``"imdb"``, ``"stack"``, ``"imdb-half"``, ``"synthetic"``, ...).
        scale: generator scale factor (row counts grow roughly linearly).
        seed: seed of the synthetic data generator.
        config: DBMS configuration of the built instance; ``None`` uses the
            generator's default.
        params: extra generator keyword arguments as a sorted tuple of
            ``(name, value)`` pairs (use :meth:`create` to pass a dict).
    """

    generator: str
    scale: float = 1.0
    seed: int = 0
    config: PostgresConfig | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        generator: str,
        scale: float = 1.0,
        seed: int = 0,
        config: PostgresConfig | None = None,
        **params: Any,
    ) -> "DatabaseSpec":
        """Build a spec, canonicalizing extra generator parameters."""
        return cls(
            generator=generator,
            scale=float(scale),
            seed=int(seed),
            config=config,
            params=_freeze_params(params),
        )

    def __post_init__(self) -> None:
        if not self.generator:
            raise StorageError("DatabaseSpec.generator must be a non-empty id")
        if self.scale <= 0:
            raise StorageError(f"DatabaseSpec.scale must be > 0, got {self.scale}")

    # ------------------------------------------------------------------ identity
    def fingerprint(self) -> str:
        """Stable content fingerprint over every field.

        Two equal specs produce the same fingerprint in any process; changing
        any field (generator, scale, seed, any configuration knob, any extra
        parameter) produces a different one.  The per-process registry and the
        result-store context fingerprints key on this digest.
        """
        config_part = self.config.fingerprint() if self.config is not None else "default"
        payload = "|".join(
            (
                f"generator:{self.generator}",
                f"scale:{self.scale!r}",
                f"seed:{self.seed}",
                f"config:{config_part}",
                "params:" + ";".join(f"{k}={v!r}" for k, v in self.params),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def params_dict(self) -> dict[str, Any]:
        """Extra generator parameters as a plain keyword dictionary."""
        return {name: value for name, value in self.params}

    # ------------------------------------------------------------------ variants
    def with_config(self, config: PostgresConfig | None) -> "DatabaseSpec":
        """The same recipe under a different DBMS configuration."""
        return replace(self, config=config)

    def with_scale(self, scale: float) -> "DatabaseSpec":
        return replace(self, scale=float(scale))

    def with_seed(self, seed: int) -> "DatabaseSpec":
        return replace(self, seed=int(seed))

    # ------------------------------------------------------------------ building
    def build(self) -> "Database":
        """Materialize a fresh database from this spec (no memoization).

        Most callers should go through
        :func:`repro.storage.registry.get_process_registry` instead, which
        builds each spec at most once per process.
        """
        # Imported lazily: the catalog generators import repro.storage.database,
        # so a module-level import here would be circular.
        from repro.catalog.factories import build_from_spec

        return build_from_spec(self)

    def describe(self) -> str:
        extras = ", ".join(f"{k}={v!r}" for k, v in self.params)
        config_part = "default-config" if self.config is None else f"config:{self.config.fingerprint()}"
        parts = [f"{self.generator} scale={self.scale:g} seed={self.seed}", config_part]
        if extras:
            parts.append(extras)
        return f"DatabaseSpec({', '.join(parts)})"
