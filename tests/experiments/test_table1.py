"""Table 1 reproduction tests: the #DIP law for SARLock."""

from repro.experiments.table1 import format_table1, run_table1


class TestTable1:
    def test_small_grid_shape(self):
        result = run_table1(
            key_sizes=(4,), efforts=(0, 1, 2), scale=0.12
        )
        baseline = result.cell(key_size=4, effort=0)
        assert baseline.max_dips == 2**4 - 1  # one DIP per wrong key
        assert baseline.uniform
        n1 = result.cell(key_size=4, effort=1)
        n2 = result.cell(key_size=4, effort=2)
        # Halving law (paper Table 1): ~2x fewer DIPs per splitting level.
        assert baseline.max_dips > n1.max_dips > n2.max_dips
        assert n1.max_dips <= (baseline.max_dips + 1) // 2 + 1
        assert len(n1.dips_per_task) == 2
        assert len(n2.dips_per_task) == 4

    def test_near_uniform_tasks(self):
        """Paper: 'the same #DIP for all the parallelized tasks'.  The
        sub-space containing k* can need one DIP fewer, so allow a
        spread of 1."""
        result = run_table1(key_sizes=(4,), efforts=(2,), scale=0.12)
        dips = result.cell(key_size=4, effort=2).dips_per_task
        assert max(dips) - min(dips) <= 1

    def test_exponential_in_key_size(self):
        result = run_table1(key_sizes=(3, 5), efforts=(0,), scale=0.12)
        assert result.cell(key_size=3, effort=0).max_dips == 7
        assert result.cell(key_size=5, effort=0).max_dips == 31

    def test_format_contains_grid(self):
        result = run_table1(key_sizes=(3,), efforts=(0, 1), scale=0.12)
        text = format_table1(result)
        assert "Table 1" in text
        assert "N=0 (baseline)" in text
        assert "7" in text

    def test_all_cells_ok(self):
        result = run_table1(key_sizes=(3,), efforts=(0, 1, 2), scale=0.12)
        assert all(cell.status == "ok" for cell in result.cells)
