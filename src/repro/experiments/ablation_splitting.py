"""Ablation A1: does the fan-out-cone splitting heuristic matter?

The paper selects splitting inputs by ranking primary inputs on the
number of key-controlled gates in their fan-out cones, arguing that
pinning such inputs "can significantly simplify the netlist's logic".
This ablation runs the multi-key attack with that heuristic against
``random`` and ``first`` selections and compares conditional-netlist
sizes, #DIP and sub-task runtimes.  The strategies are the
``selections`` axis of one :class:`~repro.scenarios.spec.ScenarioSpec`,
evaluated by :func:`~repro.scenarios.matrix.run_matrix` like Table 1,
Table 2 and D1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict

from repro.experiments.report import (
    format_table,
    gates_column,
    mean_gates,
    seconds,
)
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import MatrixResult, run_matrix
from repro.scenarios.spec import ScenarioSpec


def format_splitting_ablation(matrix: MatrixResult) -> str:
    """A1's text: one row per selection strategy; the title comes from
    ``matrix.spec``."""
    headers = [
        "Selection",
        "Mean cond. gates",
        "Total #DIP",
        "Max task",
        "Mean task",
        "Status",
    ]
    body = [
        [
            cell.selection,
            gates_column(mean_gates(cell.gates_after)),
            sum(cell.dips_per_task),
            seconds(cell.max_seconds),
            seconds(cell.mean_seconds),
            cell.status,
        ]
        for cell in matrix.cells
    ]
    return format_table(
        headers, body, title=ablation_title("A1: splitting-input selection", matrix)
    )


def ablation_title(name: str, matrix: MatrixResult) -> str:
    """An ablation table's title, from ``matrix.spec`` (A1, A2)."""
    spec = matrix.spec
    return (
        f"{name} on {spec.circuits[0]} "
        f"(scale={spec.scale}, N={spec.efforts[0]})"
    )


def lut_ablation_spec(
    circuit: str,
    scale: float,
    effort: int,
    spec: str | Mapping | LutModuleSpec,
    seed: int,
    time_limit_per_task: float | None,
    **axes,
) -> ScenarioSpec:
    """One LUT-locked circuit plus the ablated ``axes`` (A1, A2).

    Only the reference engine synthesizes conditional netlists, so
    only its cells' ``gates_after`` show what an arm earns.
    """
    return ScenarioSpec(
        schemes=[("lut", {"spec": asdict(LutModuleSpec.coerce(spec))})],
        engines=("reference",),
        circuits=(circuit,),
        scale=scale,
        efforts=(effort,),
        seeds=(seed,),
        time_limit_per_task=time_limit_per_task,
        **axes,
    )


def run_splitting_ablation(
    circuit: str = "c6288",
    scale: float = 0.3,
    effort: int = 3,
    spec: str | Mapping | LutModuleSpec | None = None,
    strategies: tuple[str, ...] = ("fanout", "random", "first"),
    seed: int = 1,
    time_limit_per_task: float | None = 120.0,
    runner: Runner | None = None,
) -> MatrixResult:
    """Compare splitting strategies on one LUT-locked benchmark (render
    the grid with :func:`format_splitting_ablation`)."""
    return run_matrix(
        lut_ablation_spec(circuit, scale, effort, spec or "paper", seed,
                          time_limit_per_task, selections=strategies),
        runner=runner or Runner(),
    )
