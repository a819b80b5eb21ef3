"""LUT-based insertion case study: the Table 2 scenario on one circuit.

LUT insertion does not inflate #DIP; it makes every miter iteration
expensive.  Splitting the input space shrinks the conditional netlists
(the decoders collapse once their select inputs are pinned), so each
sub-task is far cheaper than the monolithic baseline.

Run:  python examples/attack_lut_insertion.py [circuit] [scale] [spec]
      (spec: tiny | small | paper, default paper)
"""

import sys

from repro.bench_circuits import iscas85_like
from repro.core import multikey_attack, verify_composition
from repro.locking import LutModuleSpec, lut_lock


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "c6288"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    spec_name = sys.argv[3] if len(sys.argv) > 3 else "paper"

    original = iscas85_like(circuit, scale=scale)
    spec = LutModuleSpec.coerce(spec_name)
    locked = lut_lock(original, spec, seed=1)
    print(
        f"{circuit}-class ({original.num_gates} gates) + 2-stage LUT module "
        f"({spec.key_bits} key bits, sources: "
        f"{len(locked.meta['module_source_nets'])} nets)"
    )

    baseline = multikey_attack(locked, original, effort=0)
    print(
        f"\nbaseline SAT attack: {baseline.max_subtask_seconds:.2f}s, "
        f"{baseline.total_dips} DIPs ({baseline.status})"
    )

    attack = multikey_attack(
        locked, original, effort=4, parallel=True
    )
    print(f"multi-key attack (N=4, 16 tasks, {attack.status}):")
    print(f"  min  task: {attack.min_subtask_seconds:.2f}s")
    print(f"  mean task: {attack.mean_subtask_seconds:.2f}s")
    print(f"  max  task: {attack.max_subtask_seconds:.2f}s")
    ratio = attack.max_subtask_seconds / max(
        baseline.max_subtask_seconds, 1e-9
    )
    print(f"  maximum/baseline: {ratio:.3f} "
          f"({(1 - ratio) * 100:.1f}% runtime reduction)" if ratio < 1 else
          f"  maximum/baseline: {ratio:.3f} (no improvement on this instance)")

    if attack.status == "ok":
        equivalent = verify_composition(
            locked, attack.splitting_inputs, attack.keys, original
        )
        print(f"  composed-keys CEC: {bool(equivalent)}")
        synth = [f"{t.gates_before}->{t.gates_after}" for t in attack.subtasks[:4]]
        print(f"  conditional synthesis (first 4 tasks): {', '.join(synth)}")


if __name__ == "__main__":
    main()
