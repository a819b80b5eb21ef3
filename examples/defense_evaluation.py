"""Defender's view: evaluate locking schemes against both attack models.

A designer choosing a locking scheme traditionally asks "how many DIPs
does the SAT attack need?".  The paper argues that is the wrong
question once multi-key attacks exist.  This example scores XOR
locking, SARLock, Anti-SAT and LUT insertion on:

* area overhead (Nangate-class cell-area estimate),
* wrong-key output corruption (how broken is a wrong key, averaged
  over sampled wrong keys),
* baseline SAT-attack cost,
* multi-key attack cost at N=3 — the paper's threat model.

Run:  python examples/defense_evaluation.py [scale] [samples] [lut_spec]
      (lut_spec: tiny | small | paper, default paper)
"""

import sys

from repro.bench_circuits import iscas85_like
from repro.core import multikey_attack
from repro.locking import (
    LutModuleSpec,
    antisat_lock,
    lut_lock,
    sarlock_lock,
    xor_lock,
)
from repro.metrics import evaluate_corruption
from repro.synth import estimate_area


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    samples = int(sys.argv[2]) if len(sys.argv) > 2 else 4096
    lut_spec_name = sys.argv[3] if len(sys.argv) > 3 else "paper"
    lut_spec = LutModuleSpec.coerce(lut_spec_name)

    original = iscas85_like("c880", scale=scale)
    base_area = estimate_area(original)
    print(f"victim: c880-class, {original.num_gates} gates, "
          f"{base_area:.1f} um^2\n")

    schemes = {
        "xor (|K|=16)": xor_lock(original, 16, seed=3),
        "sarlock (|K|=8)": sarlock_lock(original, 8, seed=3),
        "antisat (n=6)": antisat_lock(original, 6, seed=3),
        f"lut ({lut_spec.key_bits}b)": lut_lock(original, lut_spec, seed=3),
    }

    header = (
        f"{'scheme':>16} {'area +%':>8} {'corrupt':>8} "
        f"{'base #DIP':>9} {'base t':>8} {'N=3 max t':>9} {'ratio':>7}"
    )
    print(header)
    for name, locked in schemes.items():
        overhead = 100 * (estimate_area(locked.netlist) / base_area - 1)
        corruption = evaluate_corruption(
            locked, original, input_samples=samples, seed=1
        ).value("corruption")
        baseline = multikey_attack(
            locked, original, effort=0, time_limit_per_task=120
        )
        multikey = multikey_attack(
            locked, original, effort=3, parallel=True, time_limit_per_task=120
        )
        ratio = multikey.max_subtask_seconds / max(
            baseline.max_subtask_seconds, 1e-9
        )
        print(
            f"{name:>16} {overhead:>7.1f}% {corruption:>7.2%} "
            f"{baseline.total_dips:>9} {baseline.max_subtask_seconds:>7.2f}s "
            f"{multikey.max_subtask_seconds:>8.2f}s {ratio:>7.3f}"
        )

    print(
        "\nReading: a low 'corrupt' value means most wrong keys barely\n"
        "corrupt the function (point-function schemes); a ratio << 1\n"
        "means the multi-key attack defeats the scheme's SAT resistance."
    )


if __name__ == "__main__":
    main()
