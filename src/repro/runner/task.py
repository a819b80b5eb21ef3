"""Structured experiment tasks and their content-hash identities.

A :class:`TaskSpec` is a fully declarative description of one unit of
experiment work — a scenario-matrix cell (a Table 1 cell, a Table 2
row, an ablation arm), a multi-key sub-task, a shard chunk — as a ``kind`` (the registered worker) plus JSON-serializable
``params``.  Its :attr:`~TaskSpec.cache_key` is a SHA-256 over the
canonical JSON of ``(kind, params, format version)``, so the same
logical task hashes identically across processes, machines and
``PYTHONHASHSEED`` values, which is what makes the on-disk result
cache (:mod:`repro.runner.cache`) safe to share.

Execution-only knobs that cannot change the *result* — inner
parallelism, pool sizes — go in ``context`` instead of ``params``:
they are merged into the worker's arguments but excluded from the
hash, so a row computed with ``--jobs 4`` is a cache hit for a later
serial run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.registry import Registry

#: Bump to invalidate every existing cache entry (artifact schema change).
CACHE_FORMAT_VERSION = 2


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN.

    Raises ``TypeError``/``ValueError`` for anything that is not plain
    JSON data — task params must be declarative, not live objects.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class TaskSpec:
    """One cacheable unit of experiment work.

    Attributes:
        kind: Registered worker name (see :func:`register_task`).
        params: JSON-serializable inputs that determine the result.
        context: Execution-only knobs merged into the worker call but
            excluded from :attr:`cache_key`.
        label: Human-readable tag for progress lines (not hashed).
    """

    kind: str
    params: Mapping[str, object]
    context: Mapping[str, object] | None = None
    label: str = ""

    @property
    def cache_key(self) -> str:
        payload = canonical_json(
            {
                "kind": self.kind,
                "params": self.params,
                "version": CACHE_FORMAT_VERSION,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def worker_params(self) -> dict[str, object]:
        merged = dict(self.params)
        if self.context:
            merged.update(self.context)
        return merged

    def describe(self) -> str:
        """Human-readable tag: the label, else ``kind:hash-prefix``."""
        return self.label or f"{self.kind}:{self.cache_key[:10]}"


@dataclass
class TaskResult:
    """A task's artifact plus provenance.

    ``elapsed_seconds`` is the worker's compute time — for a cache hit
    it is the *original* compute time read back from the artifact, so
    reports stay meaningful on warm runs.  ``index`` is the task's
    submission position within its run (set by the runner), which is
    what lets streaming consumers pair completions with dispatches.
    """

    spec: TaskSpec
    artifact: dict
    elapsed_seconds: float
    cached: bool = False
    index: int | None = None


#: kind -> worker.  Workers are module-level callables taking the merged
#: param dict and returning a JSON-serializable artifact dict; they must
#: live at module scope so the process pool can pickle them by reference.
_REGISTRY: Registry[Callable[[dict], dict]] = Registry("task kind")
task_worker = _REGISTRY.get
registered_kinds = _REGISTRY.names


def register_task(kind: str) -> Callable[[Callable[[dict], dict]], Callable]:
    """Decorator registering ``fn`` as the worker for ``kind``."""

    def decorate(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        return _REGISTRY.register(kind, fn)

    return decorate
