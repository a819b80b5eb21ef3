"""The attack registry: one declarative surface over every attack.

Every oracle-guided attack in the repo — the exact SAT attack, the
AppSAT approximation, exhaustive key search — is registered here under
a short name.  Each one follows one calling convention (the
:class:`Attack` protocol) and returns the one result type of the
package, :class:`~repro.attacks.sat_attack.AttackOutcome`.  That
uniformity is what lets :func:`repro.core.multikey.multikey_attack`
run *any* registered attack as the per-sub-space strategy of the
paper's multi-key attack, and what lets the scenario matrix
(:mod:`repro.scenarios`) enumerate ``scheme x attack x engine x
circuit`` grids declaratively.

Registration carries one capability flag: attacks that can run against
a pre-built shared miter encoding (today: the exact SAT attack)
register a ``shard_fn`` alongside the standalone ``fn``, and the
sharded multi-key engine reuses its one-shot encoding for them.
Attacks without a ``shard_fn`` still work under ``engine="sharded"`` —
the multi-key driver transparently falls back to the reference
per-sub-space path.

Adding an attack is writing one function that returns an
:class:`AttackOutcome`::

    @register_attack("my_attack", description="one-line summary")
    def my_attack(locked, oracle, *, pin=None, time_limit=None,
                  max_dips=None, seed=0, solver=None, **params):
        ...
        return AttackOutcome(attack="my_attack", ...)

Count one oracle query per applied pattern (the accounting invariant
that keeps reported query columns comparable across attacks).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from operator import attrgetter
from typing import Protocol

from repro.attacks.appsat import appsat_attack
from repro.attacks.brute_force import brute_force_attack
from repro.attacks.sat_attack import (
    SUCCESS_STATUSES,  # noqa: F401 — re-exported for the multi-key driver and the service
    AttackOutcome,
    run_dip_loop,
    sat_attack,
)
from repro.locking.base import LockedCircuit
from repro.oracle.oracle import Oracle
from repro.registry import Registry


class Attack(Protocol):
    """The calling convention every registered attack satisfies.

    ``pin`` restricts the attack to one input sub-space (the multi-key
    attack's per-sub-space contract); ``time_limit`` / ``max_dips`` are
    budgets an attack may honour or ignore (brute force ignores both);
    ``seed`` feeds any internal randomness; ``solver`` names a
    registered solver backend (:mod:`repro.sat.registry`) — attacks
    that use no solver ignore it; extra keyword ``params`` are
    attack-specific knobs.
    """

    def __call__(
        self,
        locked: LockedCircuit,
        oracle: Oracle,
        *,
        pin: Mapping[str, bool] | None = None,
        time_limit: float | None = None,
        max_dips: int | None = None,
        seed: int = 0,
        solver: str | None = None,
        **params,
    ) -> AttackOutcome: ...


@dataclass(frozen=True)
class AttackInfo:
    """One registry entry: the attack plus its capabilities.

    ``shard_fn`` — when not ``None`` — runs the attack against a
    pre-built :class:`~repro.attacks.sat_attack.MiterEncoding` with
    assumption pins and a guard literal, which is what lets the sharded
    multi-key engine share one encoding across all ``2^N`` sub-spaces.
    """

    name: str
    fn: Callable[..., AttackOutcome]
    shard_fn: Callable[..., AttackOutcome] | None = None
    description: str = ""

    @property
    def supports_shared_encoding(self) -> bool:
        return self.shard_fn is not None


_REGISTRY: Registry[AttackInfo] = Registry("attack", identity=attrgetter("fn"))
attack_info = _REGISTRY.get
registered_attacks = _REGISTRY.names


def register_attack(
    name: str,
    *,
    shard_fn: Callable[..., AttackOutcome] | None = None,
    description: str = "",
) -> Callable[[Callable[..., AttackOutcome]], Callable[..., AttackOutcome]]:
    """Decorator registering ``fn`` as the attack called ``name``."""

    def decorate(fn: Callable[..., AttackOutcome]) -> Callable[..., AttackOutcome]:
        _REGISTRY.register(name, AttackInfo(name, fn, shard_fn, description))
        return fn

    return decorate


def run_attack(
    name: str, locked: LockedCircuit, oracle: Oracle, **params
) -> AttackOutcome:
    """Run the registered attack ``name``; ``params`` are keywords of
    the :class:`Attack` convention plus attack-specific knobs."""
    return attack_info(name).fn(locked, oracle, **params)


# ----------------------------------------------------------------------
# Built-in attacks.  Each attack function is registered as it is; the
# lambdas only drop what the attack does not take (the SAT attack has
# no randomness, brute force has no budgets and no solver) and turn off
# the per-DIP iteration log, which multi-key sub-attacks never read.
# ----------------------------------------------------------------------

register_attack(
    "sat",
    shard_fn=lambda enc, oracle, *, seed=0, **budget: run_dip_loop(
        enc, oracle, record_iterations=False, **budget
    ),
    description="exact oracle-guided SAT attack (DIP refinement)",
)(
    lambda locked, oracle, *, seed=0, **budget: sat_attack(
        locked, oracle, record_iterations=False, **budget
    )
)
register_attack(
    "appsat",
    description="approximate SAT attack (DIPs + random error checkpoints)",
)(appsat_attack)
register_attack(
    "brute_force",
    description="exhaustive key enumeration (all correct keys; small circuits)",
)(
    lambda locked, oracle, *, pin=None, time_limit=None, max_dips=None,
    seed=0, solver=None: brute_force_attack(locked, oracle, pin=pin)
)
