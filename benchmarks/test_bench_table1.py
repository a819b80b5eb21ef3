"""Benchmark T1: regenerate Table 1 (#DIP for SARLock-locked c7552).

Paper shape being reproduced:

* ``N = 0`` baseline needs ``~2^|K|`` DIPs,
* #DIP halves with every unit of splitting effort,
* all 2^N parallelized tasks see (near-)identical #DIP.
"""

import pytest

from benchmarks.conftest import TABLE1_KEY_SIZES, TABLE1_SCALE
from repro.experiments.table1 import format_table1, run_table1


@pytest.mark.parametrize("key_size", TABLE1_KEY_SIZES)
def test_table1_row(benchmark, key_size):
    """One Table 1 row: #DIP across N = 0..4 for one key size."""

    def run():
        return run_table1(
            key_sizes=(key_size,),
            efforts=(0, 1, 2, 3, 4),
            scale=TABLE1_SCALE,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = result.cell(key_size=key_size, effort=0)
    assert baseline.max_dips == 2**key_size - 1
    previous = baseline.max_dips
    for effort in (1, 2, 3, 4):
        cell = result.cell(key_size=key_size, effort=effort)
        assert cell.status == "ok"
        assert cell.max_dips <= previous  # monotone decrease
        # Halving law with slack for the k*-containing sub-space.
        assert cell.max_dips <= (previous + 1) // 2 + 1
        assert max(cell.dips_per_task) - min(cell.dips_per_task) <= 1
        previous = cell.max_dips

    benchmark.extra_info["dips"] = {
        f"N={n}": result.cell(key_size=key_size, effort=n).max_dips
        for n in range(5)
    }


def test_table1_render(benchmark):
    """Formatting the whole (small) grid, end to end."""
    result = benchmark.pedantic(
        lambda: run_table1(key_sizes=(4,), efforts=(0, 1, 2), scale=0.12),
        rounds=1,
        iterations=1,
    )
    assert "Table 1" in format_table1(result)
