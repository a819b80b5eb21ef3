"""Ablation A2: what does conditional-netlist synthesis buy?

Algorithm 1 line 4 synthesizes each pinned netlist "to remove any
redundant logic".  This ablation runs the same sub-attacks with the
synthesis step disabled; the SAT attack still pins the inputs with
unit clauses, so both arms solve the same sub-spaces.  A sub-space can
have several valid partial keys, though, and the two arms may recover
different ones, so each arm's keys are checked by composing them and
proving the result equivalent to the original (the ``CEC`` column).
The arms are the ``synthesis`` axis of one
:class:`~repro.scenarios.spec.ScenarioSpec`, evaluated by
:func:`~repro.scenarios.matrix.run_matrix` like Table 1, Table 2 and D1.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.experiments.ablation_splitting import ablation_title, lut_ablation_spec
from repro.experiments.report import (
    cec_verdict,
    format_table,
    gates_column,
    mean_gates,
    seconds,
)
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import MatrixResult, run_matrix


def format_synthesis_ablation(matrix: MatrixResult) -> str:
    """A2's text: one row per synthesis arm; the title comes from
    ``matrix.spec``."""
    headers = [
        "Cond. synthesis",
        "Mean gates",
        "Total #DIP",
        "Max task",
        "Mean task",
        "Status",
        "CEC",
    ]
    body = [
        [
            "on" if cell.synthesis else "off",
            gates_column(mean_gates(cell.gates_after)),
            sum(cell.dips_per_task),
            seconds(cell.max_seconds),
            seconds(cell.mean_seconds),
            cell.status,
            cec_verdict(cell.composition_equivalent),
        ]
        for cell in matrix.cells
    ]
    return format_table(
        headers,
        body,
        title=ablation_title("A2: conditional-netlist synthesis", matrix),
    )


def run_synthesis_ablation(
    circuit: str = "c1355",
    scale: float = 0.3,
    effort: int = 3,
    spec: str | Mapping | LutModuleSpec | None = None,
    seed: int = 1,
    time_limit_per_task: float | None = 120.0,
    runner: Runner | None = None,
) -> MatrixResult:
    """Run the multi-key attack with and without conditional synthesis
    (render the grid with :func:`format_synthesis_ablation`)."""
    return run_matrix(
        lut_ablation_spec(circuit, scale, effort, spec or "paper", seed,
                          time_limit_per_task, synthesis=(True, False),
                          verify_composition=True),
        runner=runner or Runner(),
    )
