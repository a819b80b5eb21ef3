"""AppSAT-style approximate SAT attack (Shamsi et al., HOST'17).

The exact SAT attack must eliminate *every* wrong key — which is what
point-function schemes like SARLock weaponize.  AppSAT instead settles
for an *approximately* correct key: it interleaves DIP iterations with
random differential queries and stops once the candidate key's
empirical error rate stays below a threshold for several consecutive
checkpoints.

Like the original, the attack is incremental: one miter encoding lives
for the whole attack, each round resumes the exact DIP loop
(:func:`repro.attacks.sat_attack.run_dip_loop`) on that live solver,
and the round's candidate key is read off the same solver.  Every DIP
is solved and queried once.

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
from collections.abc import Mapping

from repro.attacks.sat_attack import (
    AttackOutcome,
    pinned_miter_encoding,
    run_dip_loop,
    solver_stats_delta,
)
from repro.circuit.simulator import random_stimuli_words
from repro.locking.base import LockedCircuit
from repro.metrics.engine import key_diffs
from repro.oracle.oracle import Oracle
from repro.rng import make_rng


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
) -> AttackOutcome:
    """Run the approximate attack.

    Each round resumes the DIP loop for up to ``dips_per_round`` exact
    DIP iterations, reads the current candidate key off the live
    solver and measures its error rate on ``queries_per_checkpoint``
    random patterns.  If the rate stays at or below ``error_threshold``
    for ``settle_rounds`` consecutive checkpoints, the candidate is
    accepted (status ``"settled"``).  If the DIP loop converges first,
    the key is exact and the status is ``"ok"``, as for the SAT attack.
    The oracle sees each DIP once plus the checkpoint patterns.

    ``pin`` restricts the attack to one input sub-space: DIPs respect
    the pinned constants and the checkpoint patterns are sampled inside
    the sub-space, so the accepted key is approximately correct *on the
    sub-space* — the multi-key attack's per-sub-space contract.
    ``max_dips`` caps the total DIP budget; when the cap is hit before
    the candidate settles, the last candidate is returned with status
    ``"dip_limit"``.  A ``time_limit`` stop returns no key.

    The outcome's ``detail`` holds the evidence: the accepted key's
    ``estimated_error_rate``, every ``checkpoints`` rate and the
    ``random_queries`` spent on them.  ``solver_stats`` are the live
    solver's counter deltas from before the first round to after the
    last (see :func:`~repro.attacks.sat_attack.solver_stats_delta`).
    """
    if dips_per_round < 1:
        raise ValueError(f"dips_per_round must be positive, got {dips_per_round}")
    if queries_per_checkpoint < 1:
        raise ValueError(
            f"queries_per_checkpoint must be positive, got {queries_per_checkpoint}"
        )
    start = time.perf_counter()
    queries_before = oracle.query_count
    pin = dict(pin or {})
    enc = pinned_miter_encoding(locked, pin, solver)
    stats_before = enc.solver.stats.as_dict()
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

    def finish(key, status: str, rate: float) -> AttackOutcome:
        return AttackOutcome(
            attack="appsat",
            key=key,
            status=status,
            elapsed_seconds=time.perf_counter() - start,
            # One query per DIP plus the checkpoint patterns.
            oracle_queries=oracle.query_count - queries_before,
            num_dips=total_dips,
            solver_stats=solver_stats_delta(enc.solver, stats_before),
            key_order=list(locked.key_inputs),
            pinned=pin,
            detail={
                "estimated_error_rate": rate,
                "checkpoints": checkpoints,
                "random_queries": random_queries,
            },
        )

    while True:
        cap = dips_per_round
        if max_dips is not None:
            cap = min(cap, max_dips - total_dips)
        result = run_dip_loop(
            enc,
            oracle,
            pin=pin,
            time_limit=time_limit,
            max_dips=cap,
            record_iterations=False,
            extract_on_budget=True,
            start=start,
        )
        total_dips += result.num_dips
        if result.status == "ok":
            return finish(result.key, "ok", 0.0)
        if result.status == "timeout":
            return finish(None, "timeout", 1.0)
        candidate = result.key
        if candidate is None:  # pragma: no cover - k* satisfies every DIP
            return finish(None, "dip_limit", 1.0)

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
                return finish(candidate, "settled", rate)
        else:
            settled_streak = 0
        if max_dips is not None and total_dips >= max_dips:
            return finish(candidate, "dip_limit", rate)
