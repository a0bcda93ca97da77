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

For multi-host sweeps a store opened with ``shard_count > 0`` partitions
results over that many shard directories by a stable hash of the
:class:`TaskKey`, so independent workers never contend on one directory; a
flat store is the same class with ``shard_count=0``.
:meth:`ResultStore.merge` copies a store into a flat one for reporting.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
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
#: artefacts; ``queue/`` is where older versions kept a directory work queue)
#: and are skipped by result iteration.
RESERVED_DIRS = frozenset({"artifacts", "queue"})

#: Root-level file recording the store's layout (format version, shard count).
MANIFEST_NAME = "manifest.json"

_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(part: str) -> str:
    """File-system safe rendering of one key component."""
    cleaned = _SANITIZE_RE.sub("_", part.strip())
    return cleaned or "_"


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically and durably (write-to-temp + rename).

    Readers either see the previous content or the full new content, never a
    torn mix — the invariant every store file and the manifest rely on.  The
    temp file is fsynced before the rename and the directory after it, so a
    host crash cannot leave a torn result behind an ack the coordinator
    already acted on, or lose a rename.  The temp file is cleaned up on any
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

    With ``shard_count > 0`` each :class:`TaskKey` routes to exactly one
    ``shard-XX/`` subdirectory by a stable content hash of its identity, so
    any number of workers — on any number of hosts sharing the store's
    filesystem — write into disjoint directories.  :meth:`path_for` is the
    only place the layout is decided; every other method works unchanged.

    A ``manifest.json`` at the root records the format version and shard
    count.  The first open writes it and every later open validates it: a
    store opened with another shard count (flat included) would look for
    every result in the wrong directory and silently re-run the whole grid.
    """

    def __init__(self, root: str | os.PathLike, skip_existing: bool = True, shard_count: int = 0) -> None:
        if shard_count < 0:
            raise ExperimentError(f"ResultStore.shard_count must be >= 0, got {shard_count}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.skip_existing = skip_existing
        self.shard_count = shard_count
        #: Resume accounting: how many loads were served from disk vs. computed.
        self.loaded_count = 0
        self.stored_count = 0
        self._open_manifest()

    # ------------------------------------------------------------------ paths
    def shard_of(self, key: TaskKey) -> int:
        return key.shard_index(self.shard_count)

    def path_for(self, key: TaskKey, context_fingerprint: str | None = None) -> Path:
        relative = key.relative_path(context_fingerprint)
        if self.shard_count:
            return self.root / f"shard-{self.shard_of(key):02d}" / relative
        return self.root / relative

    # ------------------------------------------------------------------ manifest
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _open_manifest(self) -> None:
        if not self.manifest_path.is_file():
            self._atomic_write(
                self.manifest_path, {"format_version": STORE_FORMAT_VERSION, "shard_count": self.shard_count}
            )
            return
        stored = self.manifest()
        if stored.get("format_version") != STORE_FORMAT_VERSION or stored.get("shard_count") != self.shard_count:
            raise ExperimentError(
                f"store at {self.root} was created with format version {stored.get('format_version')} "
                f"and {stored.get('shard_count')} shards, not version {STORE_FORMAT_VERSION} with "
                f"{self.shard_count} (0 = flat): a different layout would route task keys to the "
                "wrong directory"
            )

    def manifest(self) -> dict:
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentError(f"unreadable store manifest at {self.manifest_path}") from exc
        if not isinstance(payload, dict):
            raise ExperimentError(f"malformed store manifest at {self.manifest_path}")
        return payload

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

        This is the coordinator-side sink of a sweep's result uploads: the
        worker sends ``result.to_dict()`` over its pipe and the coordinator
        writes it verbatim, producing byte-for-byte the file the
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

        Saved artefacts (``artifacts/``), an older version's directory work
        queue (``queue/``) and the manifest are bookkeeping, not results:
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

    # ------------------------------------------------------------------ folding
    def merge(self, target_root: str | os.PathLike) -> "ResultStore":
        """Copy every result (and artefact) into a flat store at ``target_root``.

        Files are copied byte-for-byte, so results load from the merged store
        exactly as they would from this one — same payload, same context
        fingerprint.  Keys route to exactly one shard, so two shards can never
        hold the same flat path.
        """
        flat = ResultStore(target_root, skip_existing=self.skip_existing)
        for path in self.completed_files():
            relative = path.relative_to(self.root)
            if self.shard_count:
                relative = Path(*relative.parts[1:])  # drop the shard-XX/ prefix
            self._atomic_copy(path, flat.root / relative)
        artifacts = self.root / "artifacts"
        if artifacts.is_dir():
            for path in sorted(artifacts.rglob("*.json")):
                self._atomic_copy(path, flat.root / path.relative_to(self.root))
        return flat

    # ------------------------------------------------------------------ plumbing
    @staticmethod
    def _atomic_write(path: Path, payload: object) -> None:
        blob = json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")
        atomic_write_bytes(path, blob)

    @staticmethod
    def _atomic_copy(source: Path, destination: Path) -> None:
        destination.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(destination, source.read_bytes())

    def describe(self) -> str:
        n_files = sum(1 for _ in self.completed_files())
        layout = f"{self.shard_count} shards, " if self.shard_count else ""
        return (
            f"ResultStore({self.root}, {layout}{n_files} stored results, "
            f"{self.loaded_count} resumed / {self.stored_count} written this run)"
        )


#: The sharded store is a :class:`ResultStore` with ``shard_count > 0``; the
#: name stays importable for callers written against it.
ShardedResultStore = ResultStore
