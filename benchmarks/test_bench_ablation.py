"""Benchmarks A1/A2: the design-choice ablations from DESIGN.md.

A1 — splitting-input selection: the paper's fan-out-cone heuristic vs
random/first selection (conditional-netlist size and sub-task cost).

A2 — conditional-netlist synthesis: Algorithm 1's synthesis step on vs
off (identical results, different cost).
"""

from repro.experiments.ablation_splitting import run_splitting_ablation
from repro.experiments.ablation_synthesis import run_synthesis_ablation
from repro.experiments.report import mean_gates
from repro.locking.lut_lock import LutModuleSpec


def test_ablation_splitting(benchmark):
    result = benchmark.pedantic(
        lambda: run_splitting_ablation(
            circuit="c6288",
            scale=0.3,
            effort=3,
            spec=LutModuleSpec.paper_scale(),
            strategies=("fanout", "random", "first"),
            time_limit_per_task=120.0,
        ),
        rounds=1,
        iterations=1,
    )
    gates = {
        cell.selection: mean_gates(cell.gates_after) for cell in result.cells
    }
    assert all(cell.status == "ok" for cell in result.cells)
    # The paper's heuristic must not lose to naive selection on
    # conditional-netlist size (its whole point).
    assert gates["fanout"] <= gates["first"] * 1.05
    benchmark.extra_info["mean_gates"] = {
        name: round(value, 1) for name, value in gates.items()
    }
    benchmark.extra_info["max_task_s"] = {
        cell.selection: round(cell.max_seconds, 3) for cell in result.cells
    }


def test_ablation_synthesis(benchmark):
    result = benchmark.pedantic(
        lambda: run_synthesis_ablation(
            circuit="c1355",
            scale=0.3,
            effort=3,
            spec=LutModuleSpec.paper_scale(),
            time_limit_per_task=120.0,
        ),
        rounds=1,
        iterations=1,
    )
    on, off = result.cells
    gates_on, gates_off = mean_gates(on.gates_after), mean_gates(off.gates_after)
    assert gates_on < gates_off  # synthesis shrinks instances
    benchmark.extra_info["gates_on"] = round(gates_on, 1)
    benchmark.extra_info["gates_off"] = round(gates_off, 1)
    benchmark.extra_info["max_task_on_s"] = round(on.max_seconds, 3)
    benchmark.extra_info["max_task_off_s"] = round(off.max_seconds, 3)
