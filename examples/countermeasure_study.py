"""Countermeasure study: closing the multi-key loophole (future work).

The paper's conclusion asks for defenses against the multi-key attack.
This example evaluates the prototype defense in
``repro.locking.defense``: SARLock with parity-entangled comparator
inputs.  The two levers the attack pulls are measured directly:

1. how many keys unlock the attacker's best input sub-space
   (counted exactly with the BDD engine), and
2. how much the conditional netlist shrinks after pinning.

It also shows what the *approximate* attacker (AppSAT) sees, since a
defense that only stops exact attacks is not much of a defense.

Run:  python examples/countermeasure_study.py [scale] [key_size]
"""

import sys

from repro.attacks import appsat_attack
from repro.bench_circuits import iscas85_like
from repro.core import multikey_attack
from repro.locking import entangled_sarlock, sarlock_lock, splitting_resistance
from repro.oracle import Oracle


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    key_size = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    original = iscas85_like("c1908", scale=scale)
    schemes = {
        "plain SARLock": sarlock_lock(original, key_size, seed=1),
        "entangled SARLock": entangled_sarlock(original, key_size, seed=1),
    }

    print(f"victim: c1908-class, {original.num_gates} gates, |K|={key_size}\n")
    header = (
        f"{'scheme':>20} {'keys/subspace':>13} {'cond. shrink':>12} "
        f"{'base #DIP':>9} {'N=3 max #DIP':>12} {'N=3 max t':>10}"
    )
    print(header)

    for name, locked in schemes.items():
        resistance = splitting_resistance(locked, original, effort=3)
        baseline = multikey_attack(locked, original, effort=0)
        attack = multikey_attack(locked, original, effort=3)
        print(
            f"{name:>20} {resistance.keys_unlocking_subspace:>13} "
            f"{resistance.gate_reduction:>11.0%} "
            f"{baseline.total_dips:>9} {max(attack.dips_per_task):>12} "
            f"{attack.max_subtask_seconds:>9.2f}s"
        )

    print(
        "\nEntangling the comparator shrinks the sub-space key inflation "
        "and pushes\nper-sub-task #DIP back up toward the baseline — the "
        "multi-key advantage\nshrinks accordingly (it disappears entirely "
        "while |K| <= |I| - N)."
    )

    # The approximate attacker is unimpressed by either scheme: both
    # are point functions, so a low-error key settles quickly.
    print("\nAppSAT view (error threshold 5%):")
    for name, locked in schemes.items():
        result = appsat_attack(
            locked,
            Oracle(original),
            dips_per_round=4,
            queries_per_checkpoint=64,
            error_threshold=0.05,
            seed=7,
        )
        print(
            f"  {name:>20}: status={result.status} after "
            f"{result.num_dips} DIPs, est. error "
            f"{result.detail['estimated_error_rate']:.1%}"
        )
    print(
        "\nBoth schemes remain vulnerable to approximate attacks — "
        "the defense\ncloses the multi-key loophole specifically, as the "
        "paper's future work asks."
    )


if __name__ == "__main__":
    main()
