"""Metrics as a matrix axis: spec levers, dedup, parity, warm replay.

The acceptance contract: ``--metrics corruption`` columns are
byte-identical with and without structural optimization, across both
multi-key engines, and on a warm cache replay — one ``corruption_cell``
task per (scheme, circuit, effort, seed) point, shared by every
attack/engine cell that lands on it.
"""

import pytest

from repro.metrics import evaluate_corruption
from repro.bench_circuits.iscas85 import c17
from repro.locking.registry import lock_circuit
from repro.runner import ResultCache, Runner
from repro.scenarios import ScenarioSpec, run_matrix


def small_spec(**overrides):
    base = dict(
        schemes=[("sarlock", {"key_size": 3})],
        attacks=("sat",),
        engines=("sharded", "reference"),
        circuits=("c432",),
        scale=0.12,
        efforts=(1,),
        seeds=(0,),
        metrics=("corruption", "subspace"),
        key_samples=0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecLevers:
    def test_metrics_levers_validate(self):
        with pytest.raises(ValueError, match="corruption"):
            small_spec(metrics=("nope",)).validate()
        with pytest.raises(ValueError, match="key_samples"):
            small_spec(key_samples=-1).validate()

    def test_metrics_tasks_dedupe_across_attack_and_engine_axes(self):
        spec = small_spec(attacks=("sat", "brute_force"))
        # 3 attack/engine cells (sat x 2 engines + brute_force) but one
        # metric point: scheme x circuit x effort x seed.
        assert spec.size == 3
        assert spec.metrics_size == 1
        assert spec.total_tasks == 4
        tasks = spec.expand_metrics()
        assert len(tasks) == 1
        assert tasks[0].kind == "corruption_cell"

    def test_metrics_levers_survive_payload_round_trip(self):
        spec = small_spec(metrics_seed=7)
        clone = ScenarioSpec.from_payload(spec.describe())
        assert tuple(clone.metrics) == ("corruption", "subspace")
        assert clone.key_samples == 0
        assert clone.metrics_seed == 7

    def test_no_metrics_means_no_extra_tasks_or_columns(self):
        spec = small_spec(metrics=())
        assert spec.metrics_size == 0
        assert spec.total_tasks == spec.size
        result = run_matrix(spec, runner=Runner())
        assert "metric_corruption" not in result.csv_columns()
        assert result.cells[0].metrics is None


class TestMatrixMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return run_matrix(small_spec(), runner=Runner())

    def test_every_cell_carries_the_shared_metric_values(self, result):
        assert len(result.cells) == 2  # sharded + reference
        a, b = result.cells
        assert a.metrics is not None and b.metrics is not None
        assert a.metrics == b.metrics  # same corruption_cell artifact
        assert a.metrics_detail == b.metrics_detail
        assert a.key_samples == 0
        assert 0.0 < a.metrics["corruption"] <= 1.0

    def test_matrix_values_match_direct_evaluation(self, result):
        from repro.bench_circuits.corpus import resolve_circuit

        original = resolve_circuit("c432", 0.12)
        locked = lock_circuit("sarlock", original, key_size=3, seed=0)
        direct = evaluate_corruption(
            locked,
            original,
            metrics=("corruption", "subspace"),
            key_samples=0,
            effort=1,
        )
        cell = result.cells[0]
        assert cell.metrics["corruption"] == direct.value("corruption")
        assert cell.metrics["subspace"] == direct.value("subspace")

    def test_csv_has_metric_columns(self, result):
        csv_text = result.to_csv()
        header = csv_text.splitlines()[0]
        assert "metric_corruption" in header
        assert "metric_subspace" in header
        assert "key_samples" in header

    def test_format_shows_metric_columns(self, result):
        assert "corruption" in result.format()

    @staticmethod
    def _metric_columns(result):
        """The CSV restricted to its metric-derived columns."""
        import csv
        import io

        keep = ["key_samples", "metrics_seed"] + [
            c for c in result.csv_columns() if c.startswith("metric_")
        ]
        rows = csv.DictReader(io.StringIO(result.to_csv()))
        return [[row[c] for c in keep] for row in rows]

    def test_warm_replay_is_byte_identical(self, tmp_path, result):
        spec = small_spec()
        cold = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        warm = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        # Replayed artifacts are the cold run's bytes: full CSV equal.
        assert cold.to_csv() == warm.to_csv()
        # Across independent runs the timing columns move; the metric
        # columns never do.
        assert self._metric_columns(cold) == self._metric_columns(result)

    def test_warm_json_export_is_byte_identical(self, tmp_path):
        """Nested metric detail comes back from the cache in sorted key
        order; the export sorts keys, so cold and warm bytes agree."""
        spec = small_spec()
        cold = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        warm = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        assert cold.cells[0].metrics_detail
        assert cold.to_json() == warm.to_json()

    def test_opt_levels_agree_through_the_matrix(self, result, unoptimized):
        """Optimized and unoptimized sweeps give the same metric values."""
        with unoptimized():
            plain = run_matrix(small_spec(), runner=Runner())
        for cell, base in zip(plain.cells, result.cells):
            assert cell.metrics == base.metrics

    def test_json_round_trip_preserves_metrics(self, result):
        from repro.scenarios.matrix import MatrixResult

        clone = MatrixResult.from_payload(result.to_payload())
        assert clone.to_csv() == result.to_csv()
        assert clone.cells[0].metrics == result.cells[0].metrics
