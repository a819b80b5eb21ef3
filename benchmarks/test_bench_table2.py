"""Benchmark T2: regenerate Table 2 (runtime of attacking LUT insertion).

Per circuit: baseline single-key SAT attack vs the multi-key attack at
``N = 4`` (16 sub-tasks).  The paper's metric — max sub-task runtime
over baseline runtime — lands below 1.0 for most circuits (the paper
reports 6 of 8 below 1/16 on full-size netlists with a native solver;
with the pure-Python substrate the ratios are milder but the ordering
and the existence of an outlier reproduce).
"""

import pytest

from benchmarks.conftest import TABLE2_SCALE, TABLE2_TIME_LIMIT
from repro.experiments.table2 import TABLE2_CIRCUITS, run_table2
from repro.locking.lut_lock import LutModuleSpec


@pytest.mark.parametrize("circuit", TABLE2_CIRCUITS)
def test_table2_row(benchmark, circuit):
    """One Table 2 row: baseline vs 16 sub-tasks on one benchmark."""

    def run():
        return run_table2(
            circuits=(circuit,),
            scale=TABLE2_SCALE,
            spec=LutModuleSpec.paper_scale(),
            effort=4,
            parallel=True,
            time_limit_per_task=TABLE2_TIME_LIMIT,
            verify=True,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    cell = result.cells[0]

    assert cell.baseline_status == "ok"
    assert cell.status == "ok"
    assert cell.composition_equivalent is True
    assert cell.min_seconds <= cell.mean_seconds <= cell.max_seconds

    benchmark.extra_info["baseline_s"] = round(cell.baseline_seconds, 3)
    benchmark.extra_info["min_s"] = round(cell.min_seconds, 3)
    benchmark.extra_info["mean_s"] = round(cell.mean_seconds, 3)
    benchmark.extra_info["max_s"] = round(cell.max_seconds, 3)
    benchmark.extra_info["max_over_baseline"] = round(cell.ratio, 4)
    benchmark.extra_info["baseline_dips"] = cell.baseline_dips
