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
from dataclasses import dataclass, field

from repro.experiments.ablation_splitting import lut_ablation_spec
from repro.experiments.report import (
    cec_verdict,
    format_table,
    gates_column,
    mean_gates,
    seconds,
)
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import run_matrix


@dataclass
class SynthesisAblationRow:
    synthesis: bool
    mean_gates: float | None
    total_dips: int
    max_seconds: float
    mean_seconds: float
    status: str
    composition_equivalent: bool | None = None


@dataclass
class SynthesisAblationResult:
    circuit: str
    scale: float
    effort: int
    rows: list[SynthesisAblationRow] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "SynthesisAblationResult":
        """Rebuild from ``asdict`` output (a JSON round trip is lossless)."""
        data = dict(payload)
        data["rows"] = [
            SynthesisAblationRow(**row) for row in data.get("rows", [])
        ]
        return cls(**data)

    def format(self) -> str:
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
                "on" if row.synthesis else "off",
                gates_column(row.mean_gates),
                row.total_dips,
                seconds(row.max_seconds),
                seconds(row.mean_seconds),
                row.status,
                cec_verdict(row.composition_equivalent),
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                f"A2: conditional-netlist synthesis on {self.circuit} "
                f"(scale={self.scale}, N={self.effort})"
            ),
        )


def run_synthesis_ablation(
    circuit: str = "c1355",
    scale: float = 0.3,
    effort: int = 3,
    spec: str | Mapping | LutModuleSpec | None = None,
    seed: int = 1,
    time_limit_per_task: float | None = 120.0,
    runner: Runner | None = None,
) -> SynthesisAblationResult:
    """Run the multi-key attack with and without conditional synthesis."""
    matrix = run_matrix(
        lut_ablation_spec(circuit, scale, effort, spec or "paper", seed,
                          time_limit_per_task, synthesis=(True, False),
                          verify_composition=True),
        runner=runner or Runner(),
    )
    rows = [
        SynthesisAblationRow(
            synthesis=cell.synthesis,
            mean_gates=mean_gates(cell.gates_after),
            total_dips=sum(cell.dips_per_task),
            max_seconds=cell.max_seconds,
            mean_seconds=cell.mean_seconds,
            status=cell.status,
            composition_equivalent=cell.composition_equivalent,
        )
        for cell in matrix.cells
    ]
    return SynthesisAblationResult(circuit, scale, effort, rows)
