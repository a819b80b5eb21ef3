"""Ablation runner tests (A1 splitting strategy, A2 synthesis)."""

from repro.experiments.ablation_splitting import (
    format_splitting_ablation,
    run_splitting_ablation,
)
from repro.experiments.ablation_synthesis import (
    format_synthesis_ablation,
    run_synthesis_ablation,
)
from repro.experiments.report import mean_gates
from repro.locking.lut_lock import LutModuleSpec


class TestSplittingAblation:
    def test_strategies_compared(self):
        result = run_splitting_ablation(
            circuit="c6288",
            scale=0.2,
            effort=2,
            spec=LutModuleSpec.tiny(),
            strategies=("fanout", "random"),
            time_limit_per_task=60.0,
        )
        assert [cell.selection for cell in result.cells] == ["fanout", "random"]
        assert all(cell.status == "ok" for cell in result.cells)
        text = format_splitting_ablation(result)
        assert "fanout" in text and "random" in text

    def test_fanout_not_worse_on_conditional_size(self):
        """The paper's heuristic should produce conditional netlists at
        least as small as naive 'first' selection on a LUT-locked
        circuit (its padding inputs are the high-influence ones)."""
        result = run_splitting_ablation(
            circuit="c6288",
            scale=0.25,
            effort=3,
            spec=LutModuleSpec.small(),
            strategies=("fanout", "first"),
            time_limit_per_task=60.0,
        )
        by_name = {cell.selection: cell for cell in result.cells}
        assert (
            mean_gates(by_name["fanout"].gates_after)
            <= mean_gates(by_name["first"].gates_after) * 1.05
        )


class TestSynthesisAblation:
    def test_synthesis_shrinks_instances(self):
        result = run_synthesis_ablation(
            circuit="c880",
            scale=0.25,
            effort=2,
            spec=LutModuleSpec.tiny(),
            time_limit_per_task=60.0,
        )
        on, off = result.cells
        assert on.synthesis and not off.synthesis
        assert mean_gates(on.gates_after) < mean_gates(off.gates_after)
        assert on.status == off.status == "ok"

    def test_format(self):
        result = run_synthesis_ablation(
            circuit="c880",
            scale=0.2,
            effort=1,
            spec=LutModuleSpec.tiny(),
            time_limit_per_task=60.0,
        )
        assert "A2" in format_synthesis_ablation(result)
