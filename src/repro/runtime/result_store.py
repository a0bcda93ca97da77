"""A resumable JSON result store with skip-existing semantics.

Modelled on PostBOUND's experiment harness: every completed (workload, split,
method, seed) task is persisted as one JSON file, and a re-run of the same
grid loads the stored results instead of recomputing them.  Killing a long
sweep halfway and restarting it therefore only pays for the tasks that were
still missing — the resume behaviour the paper's multi-hour experiment grids
need.

Stored payloads carry a *context fingerprint* (database configuration,
experiment knobs and split membership).  The fingerprint is part of the file
name, so runs of the same (workload, split, method, seed) under different
configurations coexist instead of overwriting each other, and a file whose
fingerprint does not match the requesting context is treated as missing —
stale results from an earlier configuration can never silently leak into a
new sweep.

For multi-host sweeps the :class:`ShardedResultStore` partitions results over
N shard directories by a stable hash of the :class:`TaskKey`, so independent
workers never contend on one directory; :meth:`ShardedResultStore.merge` /
:meth:`~ShardedResultStore.compact` fold the shards back into a flat store
for reporting.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.metrics import MethodRunResult

#: Format version written into every result file.
STORE_FORMAT_VERSION = 1

#: Directories under a store root that never hold task results (saved
#: artefacts, the distributed work queue) and are skipped by result iteration.
RESERVED_DIRS = frozenset({"artifacts", "queue"})

#: Root-level bookkeeping files that are not task results.
MANIFEST_NAME = "manifest.json"

_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(part: str) -> str:
    """File-system safe rendering of one key component."""
    cleaned = _SANITIZE_RE.sub("_", part.strip())
    return cleaned or "_"


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically and durably (write-to-temp + rename).

    Readers either see the previous content or the full new content, never a
    torn mix — the invariant every store file, queue task file and ack marker
    relies on.  The temp file is fsynced before the rename and the directory
    after it, so a host crash cannot leave a done marker beside a torn result
    or lose a rename already acted on.  The temp file is cleaned up on any
    failure.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=str(path.parent))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


@dataclass(frozen=True)
class TaskKey:
    """Identity of one stored method run."""

    workload: str
    split_name: str
    method: str
    seed: int = 0

    def relative_path(self, context_fingerprint: str | None = None) -> Path:
        stem = f"{_sanitize(self.method)}-seed{self.seed}"
        if context_fingerprint is not None:
            stem += f"-{_sanitize(context_fingerprint)[:8]}"
        return Path(_sanitize(self.workload)) / _sanitize(self.split_name) / f"{stem}.json"

    def glob_patterns(self) -> tuple[str, str]:
        """Patterns matching this key's result files under *any* fingerprint.

        Only ``<stem>.json`` (no fingerprint) or ``<stem>-<fp>.json`` may
        match: the literal ``-`` keeps ``seed1`` from matching ``seed10``, and
        the ``.json`` suffix keeps stale ``<stem>.*.tmp`` leftovers of a
        crashed atomic write from counting as stored results (a half-written
        temp file would otherwise make ``exists()`` skip the task, or
        ``load()`` die on it, and poison every later resume).
        """
        stem = f"{_sanitize(self.method)}-seed{self.seed}"
        return (f"{stem}.json", f"{stem}-*.json")

    def shard_index(self, shard_count: int) -> int:
        """Stable shard assignment of this key (same in every process/host)."""
        identity = f"{self.workload}|{self.split_name}|{self.method}|{self.seed}"
        digest = hashlib.sha256(identity.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % shard_count

    def describe(self) -> str:
        return f"{self.workload}/{self.split_name}/{self.method} (seed {self.seed})"


class ResultStore:
    """Directory-backed store of :class:`MethodRunResult` payloads.

    Writes are atomic (write-to-temp + rename), so a killed run can never
    leave a half-written JSON file that would poison the next resume.
    """

    def __init__(self, root: str | os.PathLike, skip_existing: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.skip_existing = skip_existing
        #: Resume accounting: how many loads were served from disk vs. computed.
        self.loaded_count = 0
        self.stored_count = 0

    # ------------------------------------------------------------------ paths
    def path_for(self, key: TaskKey, context_fingerprint: str | None = None) -> Path:
        return self.root / key.relative_path(context_fingerprint)

    def _candidate_paths(self, key: TaskKey) -> list[Path]:
        """Every stored file for ``key``, regardless of context fingerprint.

        Only ``*.json`` files count: ``.tmp`` leftovers of a crashed
        :meth:`_atomic_write` are never usable results.
        """
        directory = self.path_for(key).parent
        if not directory.is_dir():
            return []
        found: set[Path] = set()
        for pattern in key.glob_patterns():
            found.update(directory.glob(pattern))
        return sorted(path for path in found if path.suffix == ".json")

    def exists(self, key: TaskKey, context_fingerprint: str | None = None) -> bool:
        """Whether a usable stored result exists for ``key``.

        With a ``context_fingerprint``, only a result produced under that
        exact context counts; without one, any stored variant does.
        """
        if context_fingerprint is None:
            return bool(self._candidate_paths(key))
        path = self.path_for(key, context_fingerprint)
        if not path.is_file():
            return False
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return payload.get("context_fingerprint") == context_fingerprint

    # ------------------------------------------------------------------ access
    def save(
        self,
        key: TaskKey,
        result: "MethodRunResult",
        context_fingerprint: str | None = None,
    ) -> Path:
        """Atomically persist one method run."""
        return self.save_raw(key, result.to_dict(), context_fingerprint)

    def save_raw(
        self,
        key: TaskKey,
        result_payload: dict,
        context_fingerprint: str | None = None,
    ) -> Path:
        """Persist an already-serialized result dict.

        This is the coordinator-side sink of the TCP transport's result
        uploads: the worker ships ``result.to_dict()`` over the wire and the
        coordinator writes it verbatim, producing byte-for-byte the file the
        worker's own ``save`` would have written into a shared store (no
        deserialize/re-serialize round trip to drift through).
        """
        path = self.path_for(key, context_fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "key": {
                "workload": key.workload,
                "split_name": key.split_name,
                "method": key.method,
                "seed": key.seed,
            },
            "context_fingerprint": context_fingerprint,
            "result": result_payload,
        }
        self._atomic_write(path, payload)
        self.stored_count += 1
        return path

    def load(self, key: TaskKey, context_fingerprint: str | None = None) -> "MethodRunResult":
        """Load one stored method run (raises :class:`ExperimentError` if unusable)."""
        from repro.core.metrics import MethodRunResult

        if context_fingerprint is not None:
            path = self.path_for(key, context_fingerprint)
        else:
            candidates = self._candidate_paths(key)
            if not candidates:
                raise ExperimentError(f"no stored result for {key.describe()}")
            path = candidates[0]
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ExperimentError(f"no stored result for {key.describe()}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentError(f"corrupt stored result at {path}") from exc
        if (
            context_fingerprint is not None
            and payload.get("context_fingerprint") != context_fingerprint
        ):
            raise ExperimentError(
                f"stored result for {key.describe()} was produced under a different "
                "configuration (context fingerprint mismatch)"
            )
        self.loaded_count += 1
        return MethodRunResult.from_dict(payload["result"])

    def load_or_run(
        self,
        key: TaskKey,
        thunk: Callable[[], "MethodRunResult"],
        context_fingerprint: str | None = None,
    ) -> tuple["MethodRunResult", bool]:
        """Return ``(result, was_resumed)``: load when possible, else run and save."""
        if self.skip_existing and self.exists(key, context_fingerprint):
            return self.load(key, context_fingerprint), True
        result = thunk()
        self.save(key, result, context_fingerprint)
        return result, False

    # ------------------------------------------------------------------ sweeps
    def pending(
        self, keys: Iterable[TaskKey], context_fingerprint: str | None = None
    ) -> list[TaskKey]:
        """The subset of ``keys`` that still needs to be computed."""
        if not self.skip_existing:
            return list(keys)
        return [key for key in keys if not self.exists(key, context_fingerprint)]

    def completed_files(self) -> Iterator[Path]:
        """Every stored *task result* file, in stable order.

        Saved artefacts (``artifacts/``), the distributed work queue
        (``queue/``) and the shard manifest are bookkeeping, not results:
        counting them in :meth:`describe` or deleting them in :meth:`clear`
        would corrupt the store's non-result state.
        """
        for path in sorted(self.root.rglob("*.json")):
            relative = path.relative_to(self.root)
            if relative.parts[0] in RESERVED_DIRS or relative.name == MANIFEST_NAME:
                continue
            yield path

    def clear(self) -> int:
        """Delete every stored result file (artifacts survive); returns the number removed."""
        removed = 0
        for path in list(self.completed_files()):
            path.unlink()
            removed += 1
        return removed

    # ------------------------------------------------------------------ artifacts
    def save_artifact(self, name: str, payload: object) -> Path:
        """Persist an arbitrary JSON artefact (summary tables, figure rows)."""
        path = self.root / "artifacts" / f"{_sanitize(name)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, payload)
        return path

    def load_artifact(self, name: str) -> object:
        path = self.root / "artifacts" / f"{_sanitize(name)}.json"
        try:
            return json.loads(path.read_text())
        except FileNotFoundError as exc:
            raise ExperimentError(f"no stored artifact named {name!r}") from exc

    # ------------------------------------------------------------------ plumbing
    @staticmethod
    def _atomic_write(path: Path, payload: object) -> None:
        blob = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
        atomic_write_bytes(path, blob)

    def describe(self) -> str:
        n_files = sum(1 for _ in self.completed_files())
        return (
            f"ResultStore({self.root}, {n_files} stored results, "
            f"{self.loaded_count} resumed / {self.stored_count} written this run)"
        )


class ShardedResultStore(ResultStore):
    """A :class:`ResultStore` partitioned over N shard directories.

    Each :class:`TaskKey` routes to exactly one ``shard-XX/`` subdirectory by
    a stable content hash of its identity, so any number of workers — on any
    number of hosts sharing the store's filesystem — write into disjoint
    directories without ever contending on one directory's entry list.  The
    full :class:`ResultStore` interface (``exists`` / ``save`` / ``load`` /
    ``load_or_run`` / ``pending``) works unchanged; only the on-disk layout
    differs.

    A ``manifest.json`` at the store root records the shard count (validated
    on every open: mixing shard counts would route keys to the wrong
    directory) and, after :meth:`refresh_manifest`, the set of context
    fingerprints present.  :meth:`merge` copies every result into a flat
    :class:`ResultStore` for reporting; :meth:`compact` folds the shards into
    the root in place.
    """

    def __init__(
        self, root: str | os.PathLike, shard_count: int = 8, skip_existing: bool = True
    ) -> None:
        if shard_count < 1:
            raise ExperimentError("ShardedResultStore needs at least one shard")
        super().__init__(root, skip_existing=skip_existing)
        self.shard_count = shard_count
        self._init_manifest()

    # ------------------------------------------------------------------ layout
    def shard_dir(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}"

    def shard_of(self, key: TaskKey) -> int:
        return key.shard_index(self.shard_count)

    def path_for(self, key: TaskKey, context_fingerprint: str | None = None) -> Path:
        return self.shard_dir(self.shard_of(key)) / key.relative_path(context_fingerprint)

    # ------------------------------------------------------------------ manifest
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _init_manifest(self) -> None:
        if self.manifest_path.is_file():
            stored = self.manifest()
            if stored.get("shard_count") != self.shard_count:
                raise ExperimentError(
                    f"store at {self.root} was created with "
                    f"{stored.get('shard_count')} shards, not {self.shard_count}: "
                    "a different shard count would route task keys to the wrong directory"
                )
            return
        self._atomic_write(
            self.manifest_path,
            {
                "format_version": STORE_FORMAT_VERSION,
                "shard_count": self.shard_count,
                "context_fingerprints": [],
            },
        )

    def manifest(self) -> dict:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentError(f"unreadable shard manifest at {self.manifest_path}") from exc
        if not isinstance(payload, dict):
            raise ExperimentError(f"malformed shard manifest at {self.manifest_path}")
        return payload

    def refresh_manifest(self) -> dict:
        """Rewrite the manifest with the context fingerprints currently stored."""
        fingerprints: set[str] = set()
        for path in self.completed_files():
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            fingerprint = payload.get("context_fingerprint") if isinstance(payload, dict) else None
            if fingerprint:
                fingerprints.add(fingerprint)
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "shard_count": self.shard_count,
            "context_fingerprints": sorted(fingerprints),
        }
        self._atomic_write(self.manifest_path, manifest)
        return manifest

    # ------------------------------------------------------------------ folding
    def _flat_relative(self, path: Path) -> Path:
        """The shard file's path inside a flat (unsharded) store."""
        relative = path.relative_to(self.root)
        if relative.parts and relative.parts[0].startswith("shard-"):
            return Path(*relative.parts[1:])
        return relative

    def merge(self, target_root: str | os.PathLike) -> ResultStore:
        """Copy every result (and artefact) into a flat store at ``target_root``.

        Files are copied byte-for-byte, so results load from the merged store
        exactly as they would from the shards — same payload, same context
        fingerprint.  Keys route to exactly one shard, so two shards can never
        hold the same flat path.
        """
        flat = ResultStore(target_root, skip_existing=self.skip_existing)
        for path in self.completed_files():
            self._atomic_copy(path, flat.root / self._flat_relative(path))
        artifacts = self.root / "artifacts"
        if artifacts.is_dir():
            for path in sorted(artifacts.rglob("*.json")):
                self._atomic_copy(path, flat.root / path.relative_to(self.root))
        return flat

    def compact(self) -> ResultStore:
        """Fold the shards into the root in place and drop the shard layout.

        Returns the flat :class:`ResultStore` over the same root; this sharded
        view is stale afterwards and must not be used again.
        """
        for index in range(self.shard_count):
            shard = self.shard_dir(index)
            if not shard.is_dir():
                continue
            for path in sorted(shard.rglob("*.json")):
                destination = self.root / path.relative_to(shard)
                destination.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, destination)
            shutil.rmtree(shard)
        self.manifest_path.unlink(missing_ok=True)
        return ResultStore(self.root, skip_existing=self.skip_existing)

    @staticmethod
    def _atomic_copy(source: Path, destination: Path) -> None:
        destination.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(destination, source.read_bytes())

    def describe(self) -> str:
        n_files = sum(1 for _ in self.completed_files())
        return (
            f"ShardedResultStore({self.root}, {self.shard_count} shards, "
            f"{n_files} stored results, {self.loaded_count} resumed / "
            f"{self.stored_count} written this run)"
        )
