"""The process-wide levers, each declared once.

A lever resolves the same way in every layer: an explicit value wins,
else its environment variable, else its default.  *Hashed* levers can
change what a task returns, so tasks hash their resolved value; the
others move wall-clock or storage layout only.  The CLI flags, envelope
validation and ``ScenarioSpec`` read this table; each layer resolves
its own lever where it is used (``resolve_opt``, ``resolve_solver_name``,
``resolve_cache_backend_name``).
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
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
    the envelope/``ScenarioSpec`` field.  ``choices`` is a fixed tuple
    or a callable returning the live :class:`~repro.registry.Registry`
    (which then owns the lookup and its roster error).  ``noun`` names
    a value in error messages (a registry lever's is its registry's).
    ``aliases`` map a value to the concrete one :meth:`resolve`
    returns, so caches hash what actually runs.
    """

    name: str
    env: str
    default: str
    choices: tuple[str, ...] | Callable[[], Registry]
    noun: str
    help: str
    hashed: bool
    aliases: Mapping[str, str] = field(default_factory=dict)

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def roster(self) -> list[str]:
        """Every accepted value (registry rosters sorted)."""
        if isinstance(self.choices, tuple):
            return list(self.choices)
        return self.choices().names()

    def current(self) -> str:
        """``env`` when set and non-empty, else ``default``."""
        return os.environ.get(self.env) or self.default

    def check(self, value: str) -> str:
        """``value`` when it is a choice; otherwise raise with the roster."""
        if not isinstance(self.choices, tuple):
            self.choices().get(value)
        elif value not in self.choices:
            raise ValueError(
                f"unknown {self.noun} {value!r} (choose from {self.choices})"
            )
        return value

    def resolve(self, value: str | None = None) -> str:
        """``value`` (else :meth:`current`), checked, aliases applied."""
        value = self.check(value or self.current())
        return self.aliases.get(value, value)


OPT = Lever(
    name="opt",
    env="REPRO_OPT",
    default="auto",
    choices=("auto", "off", "light", "full"),
    noun="opt level",
    help="structural optimization before simulation and CNF encoding; "
    "recovered keys are identical, only size and wall-clock change",
    hashed=True,
    # The pipeline is linear-time and parity-contractual, so there is
    # no shape where "full" loses.
    aliases={"auto": "full"},
)

SOLVER = Lever(
    name="solver",
    env="REPRO_SOLVER",
    default="python",
    choices=_registry("repro.sat.registry"),
    noun="solver backend",
    help="SAT solver backend, see matrix --list-solvers",
    hashed=True,
)

CACHE_BACKEND = Lever(
    name="cache_backend",
    env="REPRO_CACHE_BACKEND",
    default="directory",
    choices=_registry("repro.runner.backends"),
    noun="cache backend",
    help="result-cache storage backend",
    hashed=False,
)

LEVERS = (OPT, SOLVER, CACHE_BACKEND)


def check_hashed_fields(obj: object) -> None:
    """Validate every hashed lever ``obj`` sets (``None`` = default)."""
    for lever in LEVERS:
        value = getattr(obj, lever.name, None)
        if lever.hashed and value is not None:
            lever.check(value)
