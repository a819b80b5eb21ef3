"""Oracle-guided attacks on logic locking.

:mod:`repro.attacks.sat_attack` is the classic SAT attack
[Subramanyan et al., HOST'15] — the ``N = 0`` baseline of the paper's
tables.  :mod:`repro.attacks.appsat` is the approximate variant,
:mod:`repro.attacks.brute_force` enumerates the key space for
cross-validation on small instances.

Every attack returns the one result type
:class:`~repro.attacks.sat_attack.AttackOutcome`, and
:mod:`repro.attacks.registry` registers each under one calling
convention (:class:`~repro.attacks.registry.Attack`), so any
registered attack can serve as the per-sub-space strategy of the
multi-key attack and as an axis of the scenario matrix.
"""

from repro.attacks.appsat import appsat_attack
from repro.attacks.brute_force import brute_force_attack, brute_force_keys
from repro.attacks.registry import (
    Attack,
    AttackInfo,
    attack_info,
    register_attack,
    registered_attacks,
    run_attack,
)
from repro.attacks.sat_attack import (
    SUCCESS_STATUSES,
    AttackIteration,
    AttackOutcome,
    sat_attack,
    verify_key_against_oracle,
)

__all__ = [
    "sat_attack",
    "AttackIteration",
    "verify_key_against_oracle",
    "brute_force_keys",
    "brute_force_attack",
    "appsat_attack",
    "Attack",
    "AttackInfo",
    "AttackOutcome",
    "SUCCESS_STATUSES",
    "attack_info",
    "register_attack",
    "registered_attacks",
    "run_attack",
]
