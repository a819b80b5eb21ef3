"""Benchmark R1: the runner's result cache, cold versus warm.

Runs a two-circuit Table 2 slice through :class:`repro.runner.Runner`
twice against the same cache directory.  The cold pass pays the full
lock + attack + CEC cost per row; the warm pass replays the JSON
artifacts.  The tracked metric is the warm replay time; the cold time
and speedup ride along in ``extra_info`` so the perf trajectory
captures the caching win.
"""

from __future__ import annotations

import time

from repro.experiments.table2 import format_table2, run_table2
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import ResultCache, Runner

BENCH_CIRCUITS = ("c880", "c1355")


def _run(cache: ResultCache, jobs: int = 1):
    return run_table2(
        circuits=BENCH_CIRCUITS,
        scale=0.2,
        spec=LutModuleSpec.tiny(),
        effort=2,
        parallel=False,
        time_limit_per_task=120.0,
        verify=True,
        runner=Runner(jobs=jobs, cache=cache),
    )


def test_runner_cold_vs_warm(benchmark, tmp_path):
    """Warm-cache replay must be at least 5x faster than the cold run.

    The 5x floor is a wall-clock ratio (``perf_counter`` seconds of the
    cold run against the warm rounds' mean), so it moves with host load.
    """
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = _run(ResultCache(cache_dir))
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: _run(ResultCache(cache_dir)), rounds=3, iterations=1
    )

    # The replay is lossless: identical cells, identical formatted table.
    assert warm.cells == cold.cells
    assert format_table2(warm) == format_table2(cold)

    warm_seconds = benchmark.stats.stats.mean
    assert warm_seconds * 5 <= cold_seconds, (
        f"warm cache not >=5x faster: cold={cold_seconds:.3f}s "
        f"warm={warm_seconds:.3f}s"
    )
    benchmark.extra_info["cold_s"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_s"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(cold_seconds / warm_seconds, 1)
    benchmark.extra_info["circuits"] = ",".join(BENCH_CIRCUITS)


def test_runner_parallel_cold(benchmark, tmp_path):
    """Cold fan-out across two workers; rows match the serial path."""
    serial = _run(ResultCache(tmp_path / "serial"))

    def cold_parallel():
        cache = ResultCache(tmp_path / "parallel")
        cache.clear()
        return _run(cache, jobs=2)

    fanned = benchmark.pedantic(cold_parallel, rounds=1, iterations=1)
    assert [c.circuit for c in fanned.cells] == [c.circuit for c in serial.cells]
    assert [c.dips_per_task for c in fanned.cells] == [
        c.dips_per_task for c in serial.cells
    ]
    assert all(c.composition_equivalent for c in fanned.cells)
