"""AppSAT-style approximate SAT attack (Shamsi et al., HOST'17).

The exact SAT attack must eliminate *every* wrong key — which is what
point-function schemes like SARLock weaponize.  AppSAT instead settles
for an *approximately* correct key: it interleaves DIP iterations with
random differential queries and stops once the candidate key's
empirical error rate stays below a threshold for several consecutive
checkpoints.

Included here because it is the other classic answer to SAT-resistant
locking and makes a revealing comparison with the paper's multi-key
attack: AppSAT relaxes *correctness* to stay fast, the multi-key
attack keeps exactness but relaxes *key uniqueness*.  The ``pin``
parameter restricts the whole procedure — DIP search *and* the random
error checkpoints — to one input sub-space, which is how
:func:`repro.core.multikey.multikey_attack` runs AppSAT as the
per-sub-space strategy of the multi-key attack.
"""

from __future__ import annotations

import time
from functools import reduce
from operator import or_
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.attacks.sat_attack import sat_attack
from repro.circuit.simulator import random_stimuli_words
from repro.locking.base import LockedCircuit, key_to_int
from repro.metrics.engine import key_diffs
from repro.oracle.oracle import Oracle
from repro.rng import make_rng


@dataclass
class AppSatResult:
    """An approximate key plus the evidence it was judged by."""

    key: dict[str, bool] | None
    num_dips: int
    random_queries: int
    elapsed_seconds: float
    status: str  # "settled" | "exact" | "timeout" | "dip_limit"
    estimated_error_rate: float
    checkpoints: list[float] = field(default_factory=list)
    key_order: list[str] = field(default_factory=list)
    pinned: dict[str, bool] = field(default_factory=dict)

    @property
    def key_int(self) -> int | None:
        if self.key is None:
            return None
        return key_to_int([int(self.key[net]) for net in self.key_order])


def appsat_attack(
    locked: LockedCircuit,
    oracle: Oracle,
    dips_per_round: int = 8,
    queries_per_checkpoint: int = 64,
    error_threshold: float = 0.01,
    settle_rounds: int = 2,
    time_limit: float | None = None,
    seed: int = 0,
    pin: Mapping[str, bool] | None = None,
    max_dips: int | None = None,
    solver: str | None = None,
) -> AppSatResult:
    """Run the approximate attack.

    Each round runs ``dips_per_round`` exact DIP iterations, then
    extracts the current candidate key and measures its error rate on
    ``queries_per_checkpoint`` random patterns.  If the rate stays at
    or below ``error_threshold`` for ``settle_rounds`` consecutive
    checkpoints, the candidate is accepted.  If the underlying SAT
    attack converges first, the result is exact.

    ``pin`` restricts the attack to one input sub-space: DIPs respect
    the pinned constants and the checkpoint patterns are sampled inside
    the sub-space, so the accepted key is approximately correct *on the
    sub-space* — the multi-key attack's per-sub-space contract.
    ``max_dips`` caps the total DIP budget; when the cap is hit before
    the candidate settles, the best candidate so far is returned with
    status ``"dip_limit"``.
    """
    start = time.perf_counter()
    pin = dict(pin or {})
    # make_rng's bare-int passthrough keeps the historical query
    # streams bit-for-bit (see repro.rng's migration contract).
    rng = make_rng(seed)
    checkpoints: list[float] = []
    total_dips = 0
    random_queries = 0
    settled_streak = 0
    free_inputs = [
        net for net in locked.netlist.inputs if net not in locked.key_inputs
    ]

    # Reuse the exact attack's engine through its budget interface:
    # re-running with a growing DIP cap is equivalent to pausing, since
    # the attack is deterministic given the oracle and netlist.
    rounds = 0
    while True:
        rounds += 1
        budget = dips_per_round * rounds
        if max_dips is not None:
            budget = min(budget, max_dips)
        remaining = (
            None
            if time_limit is None
            else max(0.0, time_limit - (time.perf_counter() - start))
        )
        if remaining is not None and remaining == 0.0:
            return AppSatResult(
                key=None,
                num_dips=total_dips,
                random_queries=random_queries,
                elapsed_seconds=time.perf_counter() - start,
                status="timeout",
                estimated_error_rate=1.0,
                checkpoints=checkpoints,
                key_order=list(locked.key_inputs),
                pinned=pin,
            )
        result = sat_attack(
            locked,
            oracle,
            pin=pin,
            max_dips=budget,
            time_limit=remaining,
            record_iterations=False,
            solver=solver,
        )
        total_dips = result.num_dips
        if result.status == "ok":
            return AppSatResult(
                key=result.key,
                num_dips=total_dips,
                random_queries=random_queries,
                elapsed_seconds=time.perf_counter() - start,
                status="exact",
                estimated_error_rate=0.0,
                checkpoints=checkpoints,
                key_order=list(locked.key_inputs),
                pinned=pin,
            )

        # Extract the candidate key consistent with the DIPs so far by
        # re-running with the same budget but asking for key extraction:
        candidate = _candidate_key(
            locked, oracle, budget, pin=pin, solver=solver
        )
        out_of_budget = max_dips is not None and budget >= max_dips
        if candidate is None:
            if out_of_budget:
                return AppSatResult(
                    key=None,
                    num_dips=total_dips,
                    random_queries=random_queries,
                    elapsed_seconds=time.perf_counter() - start,
                    status="dip_limit",
                    estimated_error_rate=1.0,
                    checkpoints=checkpoints,
                    key_order=list(locked.key_inputs),
                    pinned=pin,
                )
            continue
        # One bit-parallel sweep for the whole checkpoint: lane q of
        # every word is random query q; the oracle still counts one
        # query per lane.  Pinned inputs hold their sub-space constant
        # in every lane, so the measured rate is a sub-space rate.
        stimuli = random_stimuli_words(
            free_inputs, queries_per_checkpoint, rng, pin
        )
        [diffs] = key_diffs(
            locked, oracle, [candidate], stimuli, queries_per_checkpoint
        )
        random_queries += queries_per_checkpoint
        rate = reduce(or_, diffs, 0).bit_count() / queries_per_checkpoint
        checkpoints.append(rate)
        if rate <= error_threshold:
            settled_streak += 1
            if settled_streak >= settle_rounds:
                return AppSatResult(
                    key=candidate,
                    num_dips=total_dips,
                    random_queries=random_queries,
                    elapsed_seconds=time.perf_counter() - start,
                    status="settled",
                    estimated_error_rate=rate,
                    checkpoints=checkpoints,
                    key_order=list(locked.key_inputs),
                    pinned=pin,
                )
        else:
            settled_streak = 0
        if out_of_budget:
            return AppSatResult(
                key=candidate,
                num_dips=total_dips,
                random_queries=random_queries,
                elapsed_seconds=time.perf_counter() - start,
                status="dip_limit",
                estimated_error_rate=rate,
                checkpoints=checkpoints,
                key_order=list(locked.key_inputs),
                pinned=pin,
            )


def _candidate_key(
    locked: LockedCircuit,
    oracle: Oracle,
    dip_budget: int,
    pin: Mapping[str, bool] | None = None,
    solver: str | None = None,
) -> dict[str, bool] | None:
    """A key consistent with the first ``dip_budget`` DIPs.

    Implemented by replaying the deterministic attack with the budget
    and extracting any key satisfying the accumulated constraints —
    the same thing AppSAT's incremental implementation reads off its
    live solver.
    """
    from repro.attacks.sat_attack import sat_attack as run

    # A fresh oracle view is fine: queries are pure functions.
    replay = run(
        locked,
        oracle,
        pin=pin,
        max_dips=dip_budget,
        record_iterations=False,
        extract_on_budget=True,
        solver=solver,
    )
    return replay.key
