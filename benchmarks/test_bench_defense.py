"""Benchmark D1: the multi-key countermeasure (paper's future work).

Quantifies, per scheme, the two levers the multi-key attack pulls —
sub-space key inflation and conditional-netlist shrinkage — plus the
measured attack cost.  Expected: the entangled variant pins the
sub-space key count at exactly 1 and removes the attack's DIP savings.
"""

from repro.experiments.defense import run_defense_experiment


def test_defense_comparison(benchmark):
    result = benchmark.pedantic(
        lambda: run_defense_experiment(
            circuit="c1908",
            scale=0.3,
            key_size=5,  # within the defense's code-existence regime
            effort=3,
            time_limit_per_task=240.0,
        ),
        rounds=1,
        iterations=1,
    )
    by_name = {cell.scheme: cell for cell in result.cells}
    assert by_name["entangled"].subspace_keys == 1
    assert by_name["sarlock"].subspace_keys > 1
    assert by_name["entangled"].max_dips >= by_name["sarlock"].max_dips
    benchmark.extra_info["subspace_keys"] = {
        name: cell.subspace_keys for name, cell in by_name.items()
    }
    benchmark.extra_info["max_dips"] = {
        name: cell.max_dips for name, cell in by_name.items()
    }
