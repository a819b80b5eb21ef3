"""The one name -> entry registry behind every roster in the package.

Locking schemes, attacks, solver backends, corruption metrics and
runner task kinds each keep one :class:`Registry` instance
(the module-level ``_REGISTRY``, or ``_METRICS``) filled by a
``@register_*`` decorator at import time.  The registry owns the two
rules every roster shares:

* a name is taken once: registering the same object again is a no-op
  (a module imported twice), a different object raises
  ``ValueError("<noun> '<name>' already registered")``;
* an unknown name raises :class:`UnknownName` with the sorted roster,
  ``unknown <noun> '<name>' (registered: a, b)``.

Example::

    >>> colours = Registry("colour")
    >>> colours.register("red", 0xF00)
    3840
    >>> colours.get("blue")
    Traceback (most recent call last):
    ...
    repro.registry.UnknownName: unknown colour 'blue' (registered: red)
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Generic, TypeVar

V = TypeVar("V")


class UnknownName(KeyError, ValueError):
    """An unregistered name (a ``KeyError`` and a ``ValueError`` both)."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return str(self.args[0])


class Registry(dict, Generic[V]):
    """A ``dict`` of named entries with one duplicate and roster policy.

    ``noun`` names an entry in error messages.  ``identity`` maps an
    entry to the object whose re-registration is a no-op — the wrapped
    function, for entries that bundle one with metadata.
    """

    def __init__(
        self, noun: str, identity: Callable[[V], object] = lambda entry: entry
    ) -> None:
        super().__init__()
        self.noun = noun
        self._identity = identity

    def register(self, name: str, entry: V) -> V:
        """Store ``entry`` under ``name`` (see the module rules)."""
        kept = self.setdefault(name, entry)
        if self._identity(kept) is not self._identity(entry):
            raise ValueError(f"{self.noun} {name!r} already registered")
        return kept

    def get(self, name: str, *default):
        """The entry for ``name``; :class:`UnknownName` on a miss.

        With a ``default`` this is plain :meth:`dict.get`.
        """
        if default or name in self:
            return super().get(name, *default)
        roster = ", ".join(self.names()) or "<none>"
        raise UnknownName(
            f"unknown {self.noun} {name!r} (registered: {roster})"
        )

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self)
