"""Benchmark X2: corruption metrics — sampled-sweep throughput and
warm matrix-with-metrics replay.

Two measurements, parity asserted before any timing:

1. A sampled corruption sweep (wide circuit, stratified stimuli),
   recorded as lane-evaluations per second — the raw engine throughput
   ``--metrics`` rides on.
2. A scheme x engine matrix with ``metrics=("corruption", "subspace")``
   run cold then warm against one cache: the warm replay (attack cells
   *and* the deduplicated ``corruption_cell`` tasks) must be at least
   5x faster, the same floor the plain matrix benchmark enforces.

Each run appends a trajectory entry to ``BENCH_corruption.json`` at
the repository root; CI uploads it with the other ``BENCH_*.json``
trajectories.
"""

from __future__ import annotations

import time

from repro.bench_circuits.corpus import resolve_circuit
from repro.locking.registry import lock_circuit
from repro.metrics import evaluate_corruption
from repro.runner import ResultCache, Runner
from repro.scenarios import ScenarioSpec, run_matrix

from benchmarks.conftest import FULL, append_trajectory

_SCALE = 0.25 if FULL else 0.2
_KEY_SAMPLES = 64 if FULL else 24
_INPUT_SAMPLES = 1024 if FULL else 512
_METRICS = ("corruption", "bit_flip", "avalanche", "subspace")


def _bench_spec() -> ScenarioSpec:
    return ScenarioSpec(
        schemes=[("sarlock", {"key_size": 4}), ("xor", {"key_size": 4})],
        attacks=("sat",),
        engines=("sharded", "reference"),
        circuits=("c880",),
        scale=_SCALE,
        efforts=(2,),
        time_limit_per_task=120.0,
        metrics=_METRICS,
        key_samples=_KEY_SAMPLES,
    )


def test_sampled_sweep_throughput(benchmark):
    """Raw engine rate on the sampled path, parity-checked first."""
    original = resolve_circuit("c880", _SCALE)
    locked = lock_circuit("sarlock", original, key_size=6, seed=0)
    kwargs = dict(
        metrics=_METRICS,
        key_samples=_KEY_SAMPLES,
        effort=2,
        input_samples=_INPUT_SAMPLES,
    )

    # Determinism before timing: every run must produce the same bits,
    # else the numbers mean nothing.
    reference = evaluate_corruption(locked, original, **kwargs)
    check = evaluate_corruption(locked, original, **kwargs)
    assert check.metrics == reference.metrics

    report = benchmark.pedantic(
        lambda: evaluate_corruption(locked, original, **kwargs),
        rounds=3,
        iterations=1,
    )
    assert report.metrics == reference.metrics

    seconds = benchmark.stats.stats.mean
    lane_evals = report.keys_sampled * report.input_samples
    rate = lane_evals / seconds
    benchmark.extra_info["lane_evals_per_s"] = round(rate)

    append_trajectory(
        "corruption",
        [
            {
                "ts": time.time(),
                "kind": "sweep",
                "key_samples": report.keys_sampled,
                "input_samples": report.input_samples,
                "seconds": round(seconds, 4),
                "lane_evals_per_s": round(rate),
            }
        ],
    )


def test_matrix_with_metrics_cold_vs_warm(benchmark, tmp_path):
    """Warm matrix-with-metrics replay must be at least 5x faster."""
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

    # Lossless replay: identical cells including their metric columns.
    assert warm.cells == cold.cells
    assert warm.to_csv() == cold.to_csv()
    assert all(cell.status == "ok" for cell in cold.cells)
    assert all(cell.metrics is not None for cell in cold.cells)
    # The engine axis shares one corruption_cell per grid point.
    sharded = [c for c in cold.cells if c.engine == "sharded"]
    reference = [c for c in cold.cells if c.engine == "reference"]
    for a, b in zip(sharded, reference):
        assert a.metrics == b.metrics

    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds
    benchmark.extra_info["cold_s"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_s"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    append_trajectory(
        "corruption",
        [
            {
                "ts": time.time(),
                "kind": "matrix",
                "cells": len(cold.cells),
                "metric_tasks": spec.metrics_size,
                "scale": _SCALE,
                "cold_s": round(cold_seconds, 4),
                "warm_s": round(warm_seconds, 4),
                "speedup": round(speedup, 2),
            }
        ],
    )

    assert warm_seconds * 5 <= cold_seconds, (
        f"warm metrics replay not >=5x faster: cold={cold_seconds:.3f}s "
        f"warm={warm_seconds:.3f}s"
    )
