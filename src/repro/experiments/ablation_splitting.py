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
from dataclasses import asdict, dataclass, field
from statistics import fmean

from repro.experiments.report import format_table, seconds
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import run_matrix
from repro.scenarios.spec import ScenarioSpec


@dataclass
class AblationRow:
    strategy: str
    mean_gates_after: float
    total_dips: int
    max_seconds: float
    mean_seconds: float
    status: str


@dataclass
class SplittingAblationResult:
    circuit: str
    scale: float
    effort: int
    rows: list[AblationRow] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "SplittingAblationResult":
        """Rebuild from ``asdict`` output (a JSON round trip is lossless)."""
        data = dict(payload)
        data["rows"] = [AblationRow(**row) for row in data.get("rows", [])]
        return cls(**data)

    def format(self) -> str:
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
                row.strategy,
                f"{row.mean_gates_after:.0f}",
                row.total_dips,
                seconds(row.max_seconds),
                seconds(row.mean_seconds),
                row.status,
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                f"A1: splitting-input selection on {self.circuit} "
                f"(scale={self.scale}, N={self.effort})"
            ),
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
) -> SplittingAblationResult:
    """Compare splitting strategies on one LUT-locked benchmark."""
    matrix = run_matrix(
        lut_ablation_spec(circuit, scale, effort, spec or "paper", seed,
                          time_limit_per_task, selections=strategies),
        runner=runner or Runner(),
    )
    rows = [
        AblationRow(
            strategy=cell.selection,
            mean_gates_after=fmean(cell.gates_after),
            total_dips=sum(cell.dips_per_task),
            max_seconds=cell.max_seconds,
            mean_seconds=cell.mean_seconds,
            status=cell.status,
        )
        for cell in matrix.cells
    ]
    return SplittingAblationResult(circuit, scale, effort, rows)
