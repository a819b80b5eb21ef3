"""Benchmark X1: scenario-matrix runs, cold versus warm cache.

Runs one small ``scheme x attack x engine`` grid through
:func:`repro.scenarios.run_matrix` twice against the same cache
directory.  The cold pass pays the full lock + multi-key attack cost
per cell; the warm pass replays the JSON artifacts.  The asserted
floor is 5x in the warm replay's favour — the same contract
``benchmarks/test_bench_runner.py`` enforces for the classic drivers,
now protecting the declarative path every driver rides on.

Each run appends a trajectory entry to ``BENCH_matrix.json`` at the
repository root; CI uploads the file (with the other ``BENCH_*.json``
trajectories) as an artifact so the perf history is tracked per PR.
"""

from __future__ import annotations

import time

from repro.runner import ResultCache, Runner
from repro.scenarios import ScenarioSpec, run_matrix

from benchmarks.conftest import FULL, append_trajectory

_SCALE = 0.25 if FULL else 0.2


def _bench_spec() -> ScenarioSpec:
    return ScenarioSpec(
        schemes=[("sarlock", {"key_size": 4}), ("xor", {"key_size": 4})],
        attacks=(
            "sat",
            (
                "appsat",
                {"dips_per_round": 32, "error_threshold": 0.0,
                 "settle_rounds": 99},
            ),
        ),
        engines=("sharded", "reference"),
        circuits=("c880",),
        scale=_SCALE,
        efforts=(2,),
        time_limit_per_task=120.0,
        verify_composition=True,
    )


def test_matrix_cold_vs_warm(benchmark, tmp_path):
    """Warm-cache matrix replay must be at least 5x faster than cold.

    The 5x floor is a wall-clock ratio (``perf_counter`` seconds of the
    cold run against the warm rounds' mean), so it moves with host load.
    """
    spec = _bench_spec()
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_matrix(spec, runner=Runner(cache=ResultCache(cache_dir)))
    cold_seconds = time.perf_counter() - start

    warm = benchmark.pedantic(
        lambda: run_matrix(spec, runner=Runner(cache=ResultCache(cache_dir))),
        rounds=3,
        iterations=1,
    )

    # The replay is lossless: identical cells, identical formatted table.
    assert warm.cells == cold.cells
    assert warm.format() == cold.format()
    assert all(cell.status == "ok" for cell in cold.cells)
    assert all(cell.composition_equivalent for cell in cold.cells)

    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds
    benchmark.extra_info["cold_s"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_s"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["cells"] = len(cold.cells)

    append_trajectory(
        "matrix",
        [
            {
                "ts": time.time(),
                "cells": len(cold.cells),
                "scale": _SCALE,
                "cold_s": round(cold_seconds, 4),
                "warm_s": round(warm_seconds, 4),
                "speedup": round(speedup, 2),
            }
        ],
    )

    assert warm_seconds * 5 <= cold_seconds, (
        f"warm matrix replay not >=5x faster: cold={cold_seconds:.3f}s "
        f"warm={warm_seconds:.3f}s"
    )
