"""The process-wide levers, each declared once.

A lever resolves the same way in every layer: an explicit value wins,
else its environment variable, else its default.  *Hashed* levers can
change what a task returns, so tasks hash their resolved value; the
others move wall-clock or storage layout only.  The CLI flags, envelope
validation and ``ScenarioSpec`` read this table; each layer resolves
its own lever where it is used (``resolve_solver_name``,
``resolve_cache_backend_name``).
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.registry import Registry


def _registry(module: str) -> Callable[[], Registry]:
    """A module's :class:`~repro.registry.Registry`, imported on first
    use (the registry modules import this table, so they cannot be
    imported here)."""
    return functools.cache(lambda: importlib.import_module(module)._REGISTRY)


@dataclass(frozen=True)
class Lever:
    """One process-wide lever.

    ``name``, dashed, is the CLI flag; for a hashed lever it is also
    the envelope/``ScenarioSpec`` field.  ``choices`` returns the live
    :class:`~repro.registry.Registry`, which owns the lookup and its
    roster error.
    """

    name: str
    env: str
    default: str
    choices: Callable[[], Registry]
    help: str
    hashed: bool

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def noun(self) -> str:
        """What error messages call one value (the registry's noun)."""
        return self.choices().noun

    def roster(self) -> list[str]:
        """Every accepted value, sorted."""
        return self.choices().names()

    def current(self) -> str:
        """``env`` when set and non-empty, else ``default``."""
        return os.environ.get(self.env) or self.default

    def check(self, value: str) -> str:
        """``value`` when it is a choice; otherwise raise with the roster."""
        self.choices().get(value)
        return value

    def resolve(self, value: str | None = None) -> str:
        """``value`` (else :meth:`current`), checked."""
        return self.check(value or self.current())


SOLVER = Lever(
    name="solver",
    env="REPRO_SOLVER",
    default="python",
    choices=_registry("repro.sat.registry"),
    help="SAT solver backend, see matrix --list-solvers",
    hashed=True,
)

CACHE_BACKEND = Lever(
    name="cache_backend",
    env="REPRO_CACHE_BACKEND",
    default="directory",
    choices=_registry("repro.runner.backends"),
    help="result-cache storage backend",
    hashed=False,
)

LEVERS = (SOLVER, CACHE_BACKEND)


def check_hashed_fields(obj: object) -> None:
    """Validate every hashed lever ``obj`` sets (``None`` = default)."""
    for lever in LEVERS:
        value = getattr(obj, lever.name, None)
        if lever.hashed and value is not None:
            lever.check(value)
