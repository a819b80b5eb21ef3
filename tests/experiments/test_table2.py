"""Table 2 reproduction tests (tiny configuration for CI speed)."""

from repro.experiments.table2 import TABLE2_CIRCUITS, format_table2, run_table2
from repro.locking.lut_lock import LutModuleSpec


class TestTable2:
    def test_tiny_run_structure(self):
        result = run_table2(
            circuits=("c880", "c6288"),
            scale=0.2,
            spec=LutModuleSpec.tiny(),
            effort=2,
            parallel=False,
            time_limit_per_task=60.0,
        )
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.baseline_status == "ok"
            assert cell.status == "ok"
            assert cell.min_seconds <= cell.mean_seconds <= cell.max_seconds
            assert cell.ratio > 0
            assert len(cell.dips_per_task) == 4
            assert cell.composition_equivalent is True

    def test_format_lists_circuits(self):
        result = run_table2(
            circuits=("c880",),
            scale=0.2,
            spec=LutModuleSpec.tiny(),
            effort=1,
            parallel=False,
            time_limit_per_task=60.0,
            verify=False,
        )
        text = format_table2(result)
        assert "Table 2" in text
        assert "c880" in text
        assert "Maximum/Baseline" in text

    def test_paper_circuit_list(self):
        assert TABLE2_CIRCUITS == (
            "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
            "c7552",
        )
