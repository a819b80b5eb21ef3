"""Content-hash-keyed result cache: one flat on-disk store.

:class:`ResultCache` maps a :class:`~repro.runner.task.TaskSpec` to its
``(kind, sha256)`` identity, owns the entry schema (spec provenance +
compute time + payload), validates the schema version and counts hits
and misses.  It stores one JSON artifact per task::

    <cache_root>/
        scenario_cell/<sha256>.json
        multikey_shard_chunk/<sha256>.json
        ...

Each artifact records the spec that produced it (kind + params), the
worker's compute time, a creation timestamp and the result payload.
Entries are written atomically (temp file in the destination directory
+ ``os.replace``), so a crashed writer or two processes racing on one
content hash never leave a torn artifact visible: readers see the old
bytes, the new bytes, or a miss.  Unreadable entries are treated as
misses and overwritten, never raised.

Invalidation is by deletion: ``clear()`` (or removing a ``<kind>``
directory or the whole root), or bump
:data:`repro.runner.task.CACHE_FORMAT_VERSION` in code when the
artifact schema itself changes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.runner.task import CACHE_FORMAT_VERSION, TaskSpec

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-lock``."""
    override = os.environ.get(CACHE_DIR_ENV, "")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-lock").expanduser()


def _read_entry(path: Path) -> dict | None:
    """Load one artifact file; any unreadable or torn file is a miss."""
    try:
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


def _write_atomic(path: Path, entry: dict) -> None:
    """Write ``entry`` via temp-file-then-rename in ``path``'s directory.

    ``os.replace`` is atomic within a filesystem, so concurrent writers
    racing on the same path each publish a complete file — last writer
    wins, readers never observe a partial one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, indent=1, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _artifacts(root: Path):
    """Every published artifact under ``root`` (no ``.tmp-`` files)."""
    if not root.is_dir():
        return
    for path in root.rglob("*.json"):
        if not path.name.startswith("."):
            yield path


class ResultCache:
    """A store of content-addressed experiment artifacts.

    Args:
        root: Store directory (``None``: :func:`default_cache_dir`).
        backend: Only ``"directory"``, the one store; any other value
            raises ``ValueError``.  The argument is kept for
            ``perfbench/``, which passes it explicitly.
    """

    def __init__(
        self, root: str | Path | None = None, backend: str = "directory"
    ) -> None:
        if backend != "directory":
            raise ValueError(
                f"unknown cache backend {backend!r} (the one store is "
                "'directory')"
            )
        self.root = (
            Path(root).expanduser() if root is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: TaskSpec) -> Path:
        """Artifact file for ``spec``."""
        return self.root / spec.kind / f"{spec.cache_key}.json"

    def contains(self, spec: TaskSpec) -> bool:
        """Whether an artifact exists for ``spec`` (no validation,
        no hit/miss accounting) — a cheap pre-flight probe."""
        return self.path_for(spec).is_file()

    def load(self, spec: TaskSpec) -> dict | None:
        """The stored entry for ``spec``, or ``None`` on a miss.

        The returned dict has at least ``artifact`` and
        ``elapsed_seconds``.  Corrupt or schema-mismatched entries
        count as misses.
        """
        entry = _read_entry(self.path_for(spec))
        if (
            entry is None
            or entry.get("version") != CACHE_FORMAT_VERSION
            or "artifact" not in entry
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(
        self, spec: TaskSpec, artifact: dict, elapsed_seconds: float
    ) -> Path:
        """Atomically persist ``artifact`` for ``spec``; returns its path."""
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "kind": spec.kind,
            "key": spec.cache_key,
            "params": dict(spec.params),
            "elapsed_seconds": elapsed_seconds,
            "created_unix": time.time(),
            "artifact": artifact,
        }
        path = self.path_for(spec)
        _write_atomic(path, entry)
        return path

    def clear(self, kind: str | None = None) -> int:
        """Delete artifacts (all, or one ``kind``); returns the count.

        Also reaps orphaned ``.tmp-*`` files left by a killed writer;
        those do not contribute to the returned count.
        """
        root = self.root / kind if kind else self.root
        removed = 0
        if root.is_dir():
            for path in sorted(root.rglob("*.json")):
                try:
                    path.unlink()
                except OSError:
                    continue
                if not path.name.startswith("."):
                    removed += 1
        return removed

    def entry_count(self, kind: str | None = None) -> int:
        """Number of stored artifacts (optionally for one task kind)."""
        return sum(1 for _ in _artifacts(self.root / kind if kind else self.root))

    def kinds(self) -> list[str]:
        """Sorted task kinds with at least one stored artifact."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.name
            for path in self.root.iterdir()
            if path.is_dir() and next(_artifacts(path), None) is not None
        )

    def __repr__(self) -> str:
        return (
            f"ResultCache({self.root}, hits={self.hits}, "
            f"misses={self.misses})"
        )
