"""The attack registry: one declarative surface over every attack.

Every oracle-guided attack in the repo — the exact SAT attack, the
AppSAT approximation, exhaustive key search — is registered here under
a short name and normalized to one calling convention (the
:class:`Attack` protocol) and one result shape
(:class:`AttackOutcome`).  That uniformity is what lets
:func:`repro.core.multikey.multikey_attack` run *any* registered
attack as the per-sub-space strategy of the paper's multi-key attack,
and what lets the scenario matrix (:mod:`repro.scenarios`) enumerate
``scheme x attack x engine x circuit`` grids declaratively.

Registration carries one capability flag: attacks that can run against
a pre-built shared miter encoding (today: the exact SAT attack)
register a ``shard_fn`` alongside the standalone ``fn``, and the
sharded multi-key engine reuses its one-shot encoding for them.
Attacks without a ``shard_fn`` still work under ``engine="sharded"`` —
the multi-key driver transparently falls back to the reference
per-sub-space path.

Adding an attack::

    @register_attack("my_attack", description="one-line summary")
    def _my_attack(locked, oracle, *, pin=None, time_limit=None,
                   max_dips=None, seed=0, **params):
        ...
        return AttackOutcome(attack="my_attack", ...)

Count one oracle query per applied pattern (the accounting invariant
that keeps reported query columns comparable across attacks).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Protocol

from repro.attacks.appsat import appsat_attack
from repro.attacks.brute_force import brute_force_attack
from repro.attacks.sat_attack import (
    MiterEncoding,
    run_dip_loop,
    sat_attack,
)
from repro.locking.base import LockedCircuit, key_to_int
from repro.oracle.oracle import Oracle
from repro.registry import Registry

#: Statuses that count as a successful sub-space attack.  ``"ok"`` is
#: an exact key; ``"settled"`` is AppSAT's acceptance criterion (the
#: empirical error rate stayed under threshold) — approximate by
#: design, still the attack succeeding on its own terms.
SUCCESS_STATUSES = frozenset({"ok", "settled"})


@dataclass
class AttackOutcome:
    """What every registered attack returns, whatever its engine.

    Attributes:
        attack: The registered attack name that produced this outcome.
        key: The recovered key (``None`` when the attack failed or a
            budget stopped it without a candidate).
        status: ``"ok"`` | ``"settled"`` | ``"timeout"`` |
            ``"dip_limit"`` | ``"no_key"`` (see
            :data:`SUCCESS_STATUSES`).
        elapsed_seconds: Wall-clock time of the attack.
        oracle_queries: Oracle queries issued by this attack (a delta,
            so shared oracles report per-attack counts correctly).
        num_dips: DIP iterations, for DIP-driven attacks (0 otherwise).
        solver_stats: Solver counter deltas, when a solver was used.
        key_order: Key port names fixing :attr:`key_int` bit order.
        pinned: The sub-space restriction the attack ran under.
        all_keys: Every correct key as an integer, for attacks that
            enumerate (brute force); ``None`` for attacks that return
            a single witness.
        detail: Attack-specific extras (e.g. AppSAT's checkpoint error
            rates) — JSON-serializable, informational only.
    """

    attack: str
    key: dict[str, bool] | None
    status: str
    elapsed_seconds: float
    oracle_queries: int
    num_dips: int = 0
    solver_stats: dict[str, int] = field(default_factory=dict)
    key_order: list[str] = field(default_factory=list)
    pinned: dict[str, bool] = field(default_factory=dict)
    all_keys: list[int] | None = None
    detail: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True when the attack met its own success criterion."""
        return self.status in SUCCESS_STATUSES and self.key is not None

    @property
    def key_int(self) -> int | None:
        """Key packed as an integer (bit ``j`` = key port ``j``)."""
        if self.key is None:
            return None
        return key_to_int([int(self.key[net]) for net in self.key_order])


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
# Built-in attacks
# ----------------------------------------------------------------------


def _sat_shard_fn(
    enc: MiterEncoding,
    oracle: Oracle,
    *,
    pin: Mapping[str, bool] | None = None,
    assume=(),
    guard: int | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    seed: int = 0,
) -> AttackOutcome:
    """The exact SAT attack against a shared miter encoding."""
    result = run_dip_loop(
        enc,
        oracle,
        pin=pin,
        assume=assume,
        guard=guard,
        time_limit=time_limit,
        max_dips=max_dips,
        record_iterations=False,
    )
    return AttackOutcome(
        attack="sat",
        key=result.key,
        status=result.status,
        elapsed_seconds=result.elapsed_seconds,
        oracle_queries=result.oracle_queries,
        num_dips=result.num_dips,
        solver_stats=result.solver_stats,
        key_order=result.key_order,
        pinned=result.pinned,
    )


@register_attack(
    "sat",
    shard_fn=_sat_shard_fn,
    description="exact oracle-guided SAT attack (DIP refinement)",
)
def _sat_attack(
    locked: LockedCircuit,
    oracle: Oracle,
    *,
    pin: Mapping[str, bool] | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    seed: int = 0,
    solver: str | None = None,
) -> AttackOutcome:
    result = sat_attack(
        locked,
        oracle,
        pin=pin,
        time_limit=time_limit,
        max_dips=max_dips,
        record_iterations=False,
        solver=solver,
    )
    return AttackOutcome(
        attack="sat",
        key=result.key,
        status=result.status,
        elapsed_seconds=result.elapsed_seconds,
        oracle_queries=result.oracle_queries,
        num_dips=result.num_dips,
        solver_stats=result.solver_stats,
        key_order=result.key_order,
        pinned=result.pinned,
        detail={"encode": result.encode_stats} if result.encode_stats else {},
    )


@register_attack(
    "appsat",
    description="approximate SAT attack (DIPs + random error checkpoints)",
)
def _appsat(
    locked: LockedCircuit,
    oracle: Oracle,
    *,
    pin: Mapping[str, bool] | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    seed: int = 0,
    solver: str | None = None,
    dips_per_round: int = 8,
    queries_per_checkpoint: int = 64,
    error_threshold: float = 0.01,
    settle_rounds: int = 2,
) -> AttackOutcome:
    queries_before = oracle.query_count
    result = appsat_attack(
        locked,
        oracle,
        dips_per_round=dips_per_round,
        queries_per_checkpoint=queries_per_checkpoint,
        error_threshold=error_threshold,
        settle_rounds=settle_rounds,
        time_limit=time_limit,
        seed=seed,
        pin=pin,
        max_dips=max_dips,
        solver=solver,
    )
    # "exact" means the underlying DIP loop converged — the key is
    # exact on the (sub-)space, identical to the SAT attack's "ok".
    status = "ok" if result.status == "exact" else result.status
    return AttackOutcome(
        attack="appsat",
        key=result.key,
        status=status,
        elapsed_seconds=result.elapsed_seconds,
        # A true delta over the shared oracle.  AppSAT resumes one
        # live DIP loop, so this is exactly num_dips + random_queries:
        # each DIP is queried once, plus the checkpoint patterns.
        oracle_queries=oracle.query_count - queries_before,
        num_dips=result.num_dips,
        key_order=result.key_order,
        pinned=result.pinned,
        solver_stats=result.solver_stats,
        detail={
            "native_status": result.status,
            "estimated_error_rate": result.estimated_error_rate,
            "checkpoints": list(result.checkpoints),
            "random_queries": result.random_queries,
        },
    )


@register_attack(
    "brute_force",
    description="exhaustive key enumeration (all correct keys; small circuits)",
)
def _brute_force(
    locked: LockedCircuit,
    oracle: Oracle,
    *,
    pin: Mapping[str, bool] | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    seed: int = 0,
    solver: str | None = None,
) -> AttackOutcome:
    # Budgets, seeds and solver backends are meaningless for an
    # exhaustive sweep; they are accepted (protocol) and ignored.
    result = brute_force_attack(locked, oracle, pin=pin)
    key = (
        locked.key_assignment(result.key_int)
        if result.key_int is not None
        else None
    )
    return AttackOutcome(
        attack="brute_force",
        key=key,
        status="ok" if result.keys else "no_key",
        elapsed_seconds=result.elapsed_seconds,
        oracle_queries=result.oracle_queries,
        key_order=result.key_order,
        pinned=result.pinned,
        all_keys=list(result.keys),
        detail={"num_keys": result.num_keys},
    )
