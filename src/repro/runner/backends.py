"""Pluggable cache storage backends behind one protocol.

:class:`~repro.runner.cache.ResultCache` is the *policy* half of the
result cache — spec hashing, entry schema, hit/miss accounting.  The
*storage* half lives here, behind the :class:`CacheBackend` protocol:
backends self-register with :func:`register_cache_backend` into one
:class:`~repro.registry.Registry`, and callers resolve by name through
:func:`create_cache_backend`.

Shipped backends:

``directory``
    The classic flat layout, one JSON artifact per task::

        <root>/<kind>/<sha256>.json

``sharded``
    The same artifacts fanned out by content-hash prefix, so thousands
    of entries never share one directory (directory listings and
    creates stay O(entries / 256) when many daemons pound one store)::

        <root>/<kind>/<sha256[:2]>/<sha256>.json

``memory``
    A thread-safe in-process dict — for tests and ephemeral services
    that want cache *semantics* (dedup within one process) without a
    disk footprint.

Both directory flavours write atomically (temp file in the destination
directory + ``os.replace``), so a crashed writer or two processes
racing on the same content hash never leave a torn artifact visible:
readers see the old bytes, the new bytes, or a miss — never half a
file.  Unreadable or truncated artifacts are treated as misses and
overwritten, never raised.

The default backend is ``directory`` (compatible with every existing
on-disk cache); the ``cache_backend`` lever (:mod:`repro.levers`, env
``REPRO_CACHE_BACKEND``) changes the process default without threading
a flag through every call site.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.levers import CACHE_BACKEND
from repro.registry import Registry


@runtime_checkable
class CacheBackend(Protocol):
    """What :class:`~repro.runner.cache.ResultCache` needs from storage.

    Entries are opaque JSON-serializable dicts addressed by
    ``(kind, key)`` — the task kind and its content hash.  Backends
    must be safe for concurrent use from multiple threads *and* (for
    shared on-disk stores) multiple processes: a load racing a store
    returns the old entry, the new entry, or ``None`` — never a torn
    read — and corrupt stored bytes are a miss, not an exception.
    """

    def load(self, kind: str, key: str) -> dict | None:
        """The stored entry, or ``None`` on a miss (or corrupt bytes)."""
        ...

    def store(self, kind: str, key: str, entry: dict) -> None:
        """Persist ``entry`` (atomically, for shared stores)."""
        ...

    def contains(self, kind: str, key: str) -> bool:
        """Cheap existence probe (no validation, no accounting)."""
        ...

    def clear(self, kind: str | None = None) -> int:
        """Delete entries (all, or one kind); returns the count."""
        ...

    def entry_count(self, kind: str | None = None) -> int:
        """Number of stored entries (optionally for one kind)."""
        ...

    def kinds(self) -> list[str]:
        """Sorted task kinds with at least one stored entry."""
        ...

    def describe(self) -> str:
        """One-line human description (``cache info`` header)."""
        ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheBackendInfo:
    """Registry record for one cache storage backend."""

    name: str
    factory: Callable[..., CacheBackend]
    description: str = ""
    #: Whether the backend persists to a filesystem root (directory
    #: flavours).  Backends without one report ``root`` as ``None``.
    persistent: bool = True


_REGISTRY: Registry[CacheBackendInfo] = Registry(
    "cache backend", identity=attrgetter("factory")
)
cache_backend_info = _REGISTRY.get
registered_cache_backends = _REGISTRY.names


def register_cache_backend(
    name: str, *, description: str = "", persistent: bool = True
):
    """Class/function decorator registering a backend factory.

    The factory is called as ``factory(root)`` where ``root`` is a
    :class:`~pathlib.Path` for persistent backends and ``None``
    otherwise.
    """

    def decorate(factory):
        _REGISTRY.register(
            name, CacheBackendInfo(name, factory, description, persistent)
        )
        return factory

    return decorate


def resolve_cache_backend_name(name: str | None) -> str:
    """``name`` if given, else the process default — always validated."""
    return CACHE_BACKEND.resolve(name)


def create_cache_backend(
    name: str | None = None, root: str | Path | None = None
) -> CacheBackend:
    """Instantiate a backend by name (``None`` -> process default).

    ``root`` is the store directory for persistent backends (``None``
    defers to the caller's default dir) and ignored otherwise.
    """
    info = _REGISTRY[resolve_cache_backend_name(name)]
    if info.persistent:
        return info.factory(Path(root).expanduser() if root else None)
    return info.factory(None)


# ----------------------------------------------------------------------
# Shared on-disk helpers
# ----------------------------------------------------------------------


def read_json_entry(path: Path) -> dict | None:
    """Load one artifact file; any unreadable/torn file is a miss."""
    try:
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


def write_json_atomic(path: Path, entry: dict) -> None:
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


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


@register_cache_backend(
    "directory",
    description="flat on-disk store: <root>/<kind>/<sha256>.json",
)
class DirectoryBackend:
    """The classic flat directory layout."""

    def __init__(self, root: str | Path | None = None) -> None:
        from repro.runner.cache import default_cache_dir

        self.root = (
            Path(root).expanduser() if root is not None else default_cache_dir()
        )

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def load(self, kind: str, key: str) -> dict | None:
        return read_json_entry(self.path_for(kind, key))

    def store(self, kind: str, key: str, entry: dict) -> None:
        write_json_atomic(self.path_for(kind, key), entry)

    def contains(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).is_file()

    def clear(self, kind: str | None = None) -> int:
        roots = [self.root / kind] if kind else [self.root]
        removed = 0
        for root in roots:
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*.json")):
                try:
                    path.unlink()
                except OSError:
                    continue
                if not path.name.startswith("."):
                    removed += 1
        return removed

    def entry_count(self, kind: str | None = None) -> int:
        root = self.root / kind if kind else self.root
        if not root.is_dir():
            return 0
        return sum(
            1 for path in root.rglob("*.json") if not path.name.startswith(".")
        )

    def kinds(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and self.entry_count(p.name)
        )

    def describe(self) -> str:
        return f"directory ({self.root})"


@register_cache_backend(
    "sharded",
    description=(
        "hash-prefix-sharded on-disk store: "
        "<root>/<kind>/<sha256[:2]>/<sha256>.json"
    ),
)
class ShardedDirectoryBackend(DirectoryBackend):
    """Fan artifacts out by content-hash prefix.

    A flat ``<kind>/`` directory with tens of thousands of entries
    makes every create and listing crawl; two hex characters of the
    SHA-256 split it into 256 balanced buckets.  Everything else —
    atomic writes, torn-file-as-miss reads, recursive counting and
    clearing — is inherited, and because counting/clearing recurse
    they also see any flat-layout entries left by the ``directory``
    backend in the same root (loads do not: the two layouts address
    different paths, so point the daemons sharing a store at one
    backend).
    """

    #: Hex characters of the content hash used as the bucket name.
    prefix_len = 2

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / key[: self.prefix_len] / f"{key}.json"

    def describe(self) -> str:
        return f"sharded ({self.root}, prefix={self.prefix_len})"


@register_cache_backend(
    "memory",
    description="thread-safe in-process dict (tests, ephemeral services)",
    persistent=False,
)
class MemoryBackend:
    """An in-process store with the same semantics as the disk ones."""

    def __init__(self, root: object = None) -> None:
        self.root = None
        self._entries: dict[tuple[str, str], dict] = {}
        self._lock = threading.Lock()

    def load(self, kind: str, key: str) -> dict | None:
        with self._lock:
            entry = self._entries.get((kind, key))
        # Deep-copied both ways so callers can't mutate stored state.
        return copy.deepcopy(entry) if entry is not None else None

    def store(self, kind: str, key: str, entry: dict) -> None:
        entry = copy.deepcopy(entry)
        with self._lock:
            self._entries[(kind, key)] = entry

    def contains(self, kind: str, key: str) -> bool:
        with self._lock:
            return (kind, key) in self._entries

    def clear(self, kind: str | None = None) -> int:
        with self._lock:
            doomed = [
                pair
                for pair in self._entries
                if kind is None or pair[0] == kind
            ]
            for pair in doomed:
                del self._entries[pair]
        return len(doomed)

    def entry_count(self, kind: str | None = None) -> int:
        with self._lock:
            return sum(
                1
                for pair in self._entries
                if kind is None or pair[0] == kind
            )

    def kinds(self) -> list[str]:
        with self._lock:
            return sorted({pair[0] for pair in self._entries})

    def describe(self) -> str:
        return "memory (in-process)"
