"""Service envelopes, figure2 driver, and CLI surface for metrics."""

import pytest

from repro.service import (
    EnvelopeError,
    MatrixRequest,
    MetricsRequest,
    Service,
    from_json,
    render_response,
    to_json,
)

_TINY = dict(
    circuit="c432",
    scheme="sarlock",
    scheme_params={"key_size": 3},
    scale=0.12,
    key_samples=0,
    effort=1,
)


class TestMetricsRequest:
    def test_round_trips_through_the_wire(self):
        request = MetricsRequest(
            metrics=["corruption", "subspace"], **_TINY
        )
        assert from_json(to_json(request)) == request

    def test_unknown_metric_fails_fast_with_the_roster(self):
        # Registry rosters propagate as the registries' own ValueError.
        with pytest.raises(ValueError, match="corruption"):
            MetricsRequest(metrics=["nope"], **_TINY)

    def test_unknown_scheme_fails_fast_with_the_roster(self):
        with pytest.raises(ValueError, match="sarlock"):
            MetricsRequest(circuit="c432", scheme="nope")

    def test_negative_key_samples_rejected(self):
        with pytest.raises(EnvelopeError, match="key_samples"):
            MetricsRequest(circuit="c432", scheme="sarlock", key_samples=-1)

    def test_matrix_request_threads_metrics_levers(self):
        request = MatrixRequest(
            schemes=[["sarlock", {"key_size": 3}]],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
            metrics=["corruption"],
            key_samples=0,
            metrics_seed=5,
        )
        assert tuple(request.metrics) == ("corruption",)
        assert request.key_samples == 0
        assert request.metrics_seed == 5
        assert from_json(to_json(request)) == request


class TestMetricsJobs:
    def test_metrics_job_matches_direct_evaluation(self):
        from repro.bench_circuits.corpus import resolve_circuit
        from repro.locking.registry import lock_circuit
        from repro.metrics import CorruptionReport, evaluate_corruption

        request = MetricsRequest(
            metrics=["corruption", "bit_flip"], **_TINY
        )
        job = Service().submit(request)
        events = list(job.events())
        assert events[0].type == "job_started"
        assert events[0].data["kind"] == "metrics"
        response = job.result()
        assert response.status == "ok"
        assert from_json(to_json(response)) == response

        report = CorruptionReport.from_payload(response.result["report"])
        original = resolve_circuit("c432", 0.12)
        locked = lock_circuit("sarlock", original, key_size=3, seed=0)
        direct = evaluate_corruption(
            locked,
            original,
            metrics=("corruption", "bit_flip"),
            key_samples=0,
            effort=1,
        )
        assert report.metrics == direct.metrics
        # The rendered text is the report's own table.
        rendered = render_response(response)
        assert "corruption" in rendered and "sarlock" in rendered

    def test_matrix_job_with_metrics_counts_metric_tasks(self):
        request = MatrixRequest(
            schemes=[["sarlock", {"key_size": 3}]],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
            metrics=["corruption"],
            key_samples=0,
        )
        job = Service().submit(request)
        events = list(job.events())
        started = next(e for e in events if e.type == "job_started")
        assert started.data["total"] == request.total_tasks == 2
        response = job.result()
        assert response.status == "ok"
        cells = response.result["cells"]
        assert cells[0]["metrics"]["corruption"] > 0.0


class TestFigure2:
    def test_rows_match_direct_evaluation(self):
        """Each report (one figure row) equals a direct evaluation."""
        from repro.bench_circuits.corpus import resolve_circuit
        from repro.experiments.figure2 import format_figure2, run_figure2
        from repro.locking.registry import lock_circuit
        from repro.metrics import evaluate_corruption

        result = run_figure2(
            circuit="c432",
            key_size=3,
            scale=0.12,
            efforts=(0, 1),
            key_samples=0,
        )
        assert [
            report.detail("subspace")["num_subspaces"]
            for report in result.reports
        ] == [1, 2]
        original = resolve_circuit("c432", 0.12)
        locked = lock_circuit("sarlock", original, key_size=3, seed=0)
        for report in result.reports:
            direct = evaluate_corruption(
                locked,
                original,
                metrics=("corruption", "subspace"),
                key_samples=0,
                effort=report.effort,
            )
            assert report.value("corruption") == direct.value("corruption")
            assert report.value("subspace") == direct.value("subspace")
            assert report.detail("subspace")["unlock_fraction"] == (
                direct.detail("subspace")["unlock_fraction"]
            )
        text = format_figure2(result)
        assert "sub-spaces" in text or "N" in text

    def test_service_figure2_round_trips(self):
        from repro.experiments.figure2 import (
            Figure2Result,
            format_figure2,
            run_figure2,
        )
        from repro.service import ExperimentRequest

        request = ExperimentRequest(
            experiment="figure2",
            params={
                "circuit": "c432",
                "key_size": 3,
                "scale": 0.12,
                "efforts": [0, 1],
                "key_samples": 0,
            },
        )
        response = Service().run(request)
        assert response.status == "ok"
        rebuilt = Figure2Result.from_payload(response.result["result"])
        direct = run_figure2(
            circuit="c432", key_size=3, scale=0.12, efforts=(0, 1),
            key_samples=0,
        )
        assert [report.metrics for report in rebuilt.reports] == [
            report.metrics for report in direct.reports
        ]
        assert render_response(response) == format_figure2(direct)

    def test_run_without_reports_still_renders(self):
        """A run cancelled before its first point keeps the spec's title."""
        from repro.experiments.figure2 import (
            Figure2Result,
            figure2_spec,
            format_figure2,
        )

        spec = figure2_spec(
            circuit="c432", scheme="sarlock", scheme_params=None,
            key_size=3, scale=0.12, efforts=(0, 1), key_samples=0, seed=0,
        )
        text = format_figure2(Figure2Result(spec=spec))
        assert text.splitlines()[0] == (
            "Figure 2: per-sub-space corruption, sarlock on c432"
        )
        assert len(text.splitlines()) == 3  # title, header, rule


class TestCli:
    def test_metrics_command(self, capsys):
        from repro.cli import main

        assert main([
            "metrics", "--circuit", "c432", "--scheme", "sarlock",
            "--key-size", "3", "--scale", "0.12", "--key-samples", "0",
            "-N", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "corruption" in out and "subspace" in out

    def test_figure2_command(self, capsys):
        from repro.cli import main

        assert main([
            "figure2", "--key-size", "3", "--scale", "0.12",
            "--efforts", "0,1", "--key-samples", "0", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "2" in out

    def test_matrix_list_metrics_and_circuits(self, capsys):
        from repro.cli import main

        assert main(["matrix", "--list-metrics", "--list-circuits"]) == 0
        out = capsys.readouterr().out
        for name in ("corruption", "bit_flip", "avalanche", "subspace"):
            assert name in out
        assert "c17" in out and "c432" in out

    def test_matrix_metrics_csv(self, capsys, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "metrics.csv"
        assert main([
            "matrix", "--schemes", "sarlock", "--attacks", "sat",
            "--circuits", "c432", "--scale", "0.12", "--key-size", "3",
            "--efforts", "1", "--metrics", "corruption",
            "--key-samples", "0", "--no-cache", "--quiet",
            "--csv", str(csv_path),
        ]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert "metric_corruption" in header
