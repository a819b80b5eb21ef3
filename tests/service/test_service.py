"""Service/Job behavior: streaming, results, cancellation, snapshots."""

from __future__ import annotations

import json

import pytest

from repro.runner import ResultCache
from repro.service import (
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    ExperimentRequest,
    MatrixRequest,
    Response,
    Service,
    from_json,
    to_json,
)

_TINY_MATRIX = dict(
    schemes=[["sarlock", {"key_size": 3}]],
    circuits=["c432"],
    scale=0.12,
    efforts=[1],
)


class TestMatrixJobs:
    def test_event_stream_shape(self):
        service = Service()
        job = service.submit(MatrixRequest(**_TINY_MATRIX))
        events = list(job.events())
        types = [e.type for e in events]
        assert types[0] == "job_started"
        assert types[-1] == "job_done"
        assert types.count("cell_done") == 1
        assert types.count("cell_started") == 1
        # seq is gapless and ordered.
        assert [e.seq for e in events] == list(range(len(events)))
        assert all(e.job_id == job.id for e in events)

    def test_cell_done_count_matches_grid_size(self):
        request = MatrixRequest(
            schemes=[["sarlock", {"key_size": 3}], ["xor", {"key_size": 3}]],
            engines=["sharded", "reference"],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
        )
        service = Service()
        job = service.submit(request)
        events = list(job.events())
        total = request.size
        assert total == 4
        assert sum(e.type == "cell_done" for e in events) == total
        started = next(e for e in events if e.type == "job_started")
        assert started.data["total"] == total
        final_progress = [e for e in events if e.type == "progress"][-1]
        assert final_progress.data == {"done": 4, "total": 4, "fraction": 1.0}

    def test_response_matrix_round_trips(self):
        from repro.runner import Runner
        from repro.scenarios import run_matrix
        from repro.scenarios.matrix import MatrixResult

        request = MatrixRequest(**_TINY_MATRIX)
        service = Service(cache=ResultCache(None))
        response = service.run(request)
        assert response.status == "ok"
        # The wire envelope decodes back to an equal Response...
        assert from_json(to_json(response)) == response
        # ... and its payload reconstructs a MatrixResult equal to a
        # direct library run replayed from the same cache.
        rebuilt = MatrixResult.from_payload(response.result)
        direct = run_matrix(request, runner=Runner(cache=service.cache))
        assert rebuilt == direct

    def test_partial_status_on_budget_stopped_cells(self):
        request = MatrixRequest(
            schemes=[["sarlock", {"key_size": 4}]],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
            max_dips_per_task=1,
        )
        response = Service().run(request)
        assert response.status == "partial"

    def test_warm_replays_share_no_nested_values(self, tmp_path):
        """A response shares its cell's values rather than copying
        them, but every warm replay reads its own cache entries: a
        client mutating one response cannot reach the next job's."""
        request = MatrixRequest(
            **_TINY_MATRIX, metrics=["corruption", "subspace"], key_samples=4
        )
        service = Service(cache=ResultCache(tmp_path))
        service.run(request)  # cold: fills the cache
        first = service.run(request)
        original = json.dumps(first.result, sort_keys=True)
        [cell] = first.result["cells"]
        cell["metrics"]["corruption"] = -1.0
        cell["metrics_detail"]["corruption"]["per_key"].append(-1.0)
        cell["key_ints"].append(-1)
        cell["subtask_stats"][0]["solver_stats"]["mutated"] = 1
        assert json.dumps(first.result, sort_keys=True) != original
        second = service.run(request)
        assert second.status == "ok"
        assert json.dumps(second.result, sort_keys=True) == original


class TestExperimentJobs:
    def test_figure1_round_trip_and_render(self):
        from repro.experiments.figure1 import run_figure1
        from repro.service import render_response

        response = Service().run(ExperimentRequest(experiment="figure1"))
        assert response.status == "ok"
        assert render_response(response) == run_figure1().format()

    def test_table1_streams_cells(self):
        request = ExperimentRequest(
            experiment="table1",
            params={"key_sizes": [3], "efforts": [0, 1], "scale": 0.12},
        )
        job = Service().submit(request)
        events = list(job.events())
        assert sum(e.type == "cell_done" for e in events) == 2
        assert job.result().status == "ok"

    @pytest.mark.parametrize("spec", ["tiny", {
        "stage1_width": 3, "num_stage1": 2, "stage2_width": 3,
        "shared_padding": True,
    }], ids=["name", "dict"])
    @pytest.mark.parametrize("experiment, params", [
        ("table2", {"circuits": ["c880"], "scale": 0.2, "effort": 1}),
        ("ablation_splitting", {"scale": 0.12, "effort": 1}),
        ("ablation_synthesis", {"scale": 0.12, "effort": 1}),
    ], ids=["table2", "ablation_splitting", "ablation_synthesis"])
    def test_lut_drivers_take_a_json_spec(self, experiment, params, spec):
        from repro.service import render_response

        response = Service().run(ExperimentRequest(
            experiment=experiment, params={**params, "spec": spec},
        ))
        assert response.status == "ok", response.error
        assert render_response(response)

    @pytest.mark.parametrize("request_, module", [
        (ExperimentRequest(experiment="table2", params={
            "circuits": ["c880"], "scale": 0.2, "effort": 1, "spec": "tiny",
        }), "repro.scenarios.matrix"),
        (ExperimentRequest(experiment="figure1"), "repro.experiments.figure1"),
        (AttackRequest(
            circuit="c1908", scheme="sarlock", scheme_params={"key_size": 4},
            effort=1, scale=0.2,
        ), "repro.scenarios.matrix"),
    ], ids=["table2", "figure1", "attack"])
    def test_failed_composition_cec_is_partial(
        self, request_, module, monkeypatch
    ):
        # Every attack succeeds; only the CEC verdict says the composed
        # keys are wrong, and that alone must mark the job partial.
        monkeypatch.setattr(
            module + ".verify_composition", lambda *args, **kwargs: False
        )
        response = Service(cache=ResultCache(None)).run(request_)
        assert response.status == "partial", response.error

    def test_unhandled_worker_error_is_an_error_response(self):
        # antisat requires an even key size; the failure surfaces in
        # the job, not as a crash of the submitting thread.
        request = MatrixRequest(
            schemes=[["antisat", {"key_size": 3}]],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
        )
        job = Service().submit(request)
        events = list(job.events())
        response = job.result()
        assert response.status == "error"
        assert "even" in response.error
        assert any(e.type == "warning" for e in events)
        assert events[-1].type == "job_done"
        assert events[-1].data["status"] == "error"


class TestAttackJobs:
    def test_appsat_round_without_dips_fails_the_job(self):
        """Attack parameters the attack cannot run end the job with an
        error at once; the time limit only bounds the failure mode."""
        request = AttackRequest(
            circuit="c17",
            scheme="xor",
            scheme_params={"key_size": 4},
            attack="appsat",
            attack_params={"dips_per_round": 0},
            effort=1,
            time_limit_per_task=2,
        )
        response = Service().run(request)
        assert response.status == "error"
        assert "dips_per_round" in response.error

    def test_attack_job_and_text_parity(self):
        from repro.service import render_response

        request = AttackRequest(
            circuit="c1908",
            scheme="sarlock",
            scheme_params={"key_size": 4},
            effort=1,
            scale=0.2,
        )
        response = Service().run(request)
        assert response.status == "ok"
        assert response.result["cells"][0]["exact"] is True
        assert response.result["cells"][0]["composition_equivalent"] is True
        text = render_response(response)
        assert text.startswith("locked: LockedCircuit(sarlock")
        assert "multi-key composition equivalent: True" in text
        # quiet rendering drops the per-shard statistics only.
        quiet = render_response(response, verbose=False)
        assert "shard 0" not in quiet and "solver totals" not in quiet
        assert "multi-key composition equivalent: True" in quiet

    def test_verbose_attack_text_keeps_the_solver_lines(self):
        from repro.service import render_response

        response = Service().run(AttackRequest(
            circuit="c1908",
            scheme="sarlock",
            scheme_params={"key_size": 4},
            effort=1,
            scale=0.2,
        ))
        cell = response.result["cells"][0]
        lines = render_response(response).splitlines()
        totals = [line for line in lines if line.startswith("solver totals: ")]
        assert len(totals) == 1
        conflicts = sum(
            task["solver_stats"]["conflicts"] for task in cell["subtask_stats"]
        )
        assert totals[0].startswith(f"solver totals: {conflicts} conflicts, ")
        shards = [line for line in lines if line.startswith("  shard ")]
        assert len(shards) == 2
        assert shards[0].startswith(
            f"  shard 0: #DIP={cell['dips_per_task'][0]} "
        )


class TestBenchJobs:
    def test_bench_payload(self):
        response = Service().run(BenchRequest(circuit="c432", scale=0.3))
        assert response.status == "ok"
        assert "INPUT(" in response.result["text"]
        assert response.result["name"]


class TestJobControl:
    def test_cancel_keeps_completed_cells(self):
        # Deterministic mid-run cancellation: cancel from inside the
        # first completion callback, then drive the job synchronously.
        # The runner polls ``should_stop`` between tasks, so exactly
        # one of the six cells completes.
        from repro.service.jobs import Job, _execute_matrix

        request = MatrixRequest(
            schemes=[["sarlock", {"key_size": 3}]],
            circuits=["c432"],
            scale=0.12,
            efforts=[1],
            seeds=list(range(6)),
        )
        service = Service()
        job = Job("cancelled-job", request)
        service._jobs[job.id] = job
        original = job._on_progress

        def cancel_after_first(result, done, total):
            original(result, done, total)
            job.cancel()

        job._on_progress = cancel_after_first
        service._run_job(job, _execute_matrix)
        response = job.result()
        assert response.status == "cancelled"
        assert len(response.result["cells"]) == 1
        assert job.snapshot()["status"] == "cancelled"
        events = list(job.events())
        assert events[-1].type == "job_done"
        assert events[-1].data["status"] == "cancelled"

    def test_snapshot_during_run(self):
        service = Service()
        job = service.submit(MatrixRequest(**_TINY_MATRIX))
        job.result()
        snapshot = job.snapshot()
        assert snapshot["status"] == "ok"
        assert [c["status"] for c in snapshot["completed"]] == ["ok"]

    def test_result_timeout(self):
        # An unstarted job never finishes: the wait must time out.
        from repro.service.jobs import Job

        job = Job("never-run", MatrixRequest(**_TINY_MATRIX))
        with pytest.raises(TimeoutError, match="still running"):
            job.result(timeout=0.01)

    def test_submitting_a_non_request_is_rejected(self):
        with pytest.raises(EnvelopeError, match="not a request"):
            Service().submit(Response(status="ok"))

    def test_duplicate_live_job_id_is_rejected(self):
        service = Service()
        job = service.submit(
            MatrixRequest(**_TINY_MATRIX), job_id="dup"
        )
        # A finished id may be reused; a live one may not.  Use a
        # barrier-free check: the first job may or may not be done yet,
        # so only assert the live-rejection when it is still running.
        if not job.done():
            with pytest.raises(EnvelopeError, match="already running"):
                service.submit(MatrixRequest(**_TINY_MATRIX), job_id="dup")
        job.result()
        service.submit(MatrixRequest(**_TINY_MATRIX), job_id="dup").result()

    def test_concurrent_jobs_share_one_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "svc-cache")
        service = Service(cache=cache)
        first = service.run(MatrixRequest(**_TINY_MATRIX))
        assert first.status == "ok"
        # Two concurrent resubmissions of the same grid replay from
        # the shared cache: every cell_done reports cached=True.
        jobs = [service.submit(MatrixRequest(**_TINY_MATRIX)) for _ in range(2)]
        for job in jobs:
            events = list(job.events())
            cell_events = [e for e in events if e.type == "cell_done"]
            assert cell_events and all(e.data["cached"] for e in cell_events)
            assert job.result().result == first.result


class TestReviewHardening:
    """Regression locks for the service-layer review findings."""

    def test_cell_done_events_carry_submission_index(self):
        job = Service().submit(
            MatrixRequest(**{**_TINY_MATRIX, "seeds": [0, 1]})
        )
        events = list(job.events())
        started = {
            e.data["index"] for e in events if e.type == "cell_started"
        }
        done = {e.data["index"] for e in events if e.type == "cell_done"}
        assert started == done == {0, 1}
        job.result()

    def test_cancelled_single_task_experiment_is_cancelled_not_error(self):
        # figure1 is one fixed-shape task; cancelling before it runs
        # must yield a clean "cancelled" response, not the driver's
        # unpack ValueError dressed up as an error.
        from repro.service.jobs import Job, _execute_experiment

        service = Service()
        job = Job("pre-cancelled", ExperimentRequest(experiment="figure1"))
        service._jobs[job.id] = job
        job.cancel()
        service._run_job(job, _execute_experiment)
        response = job.result()
        assert response.status == "cancelled"
        assert response.error is None
        assert response.result == {"completed": []}

    def test_cancel_after_completion_stays_ok(self):
        # A cancel() landing after the last task finished must not
        # rewrite a complete result as cancelled.
        from repro.service.jobs import Job

        service = Service()
        job = Job("late-cancel", MatrixRequest(**_TINY_MATRIX))
        service._jobs[job.id] = job

        def executor(svc, j):
            j.emit("job_started", {"kind": "matrix", "total": 0})
            j.cancel()  # lands after all work completed, before response
            return {"cells": [], "spec": {}}, "ok"

        service._run_job(job, executor)
        assert job.result().status == "ok"

    def test_table2_partial_rows_reported_partial(self):
        from repro.experiments.table2 import table2_spec
        from repro.scenarios.matrix import MatrixResult, ScenarioCell
        from repro.service.jobs import _matrix_status

        spec = table2_spec(("c880",), 0.2, "tiny", 1, 60.0, 1, True)

        def grid(status, baseline_status="ok"):
            cell = ScenarioCell(
                scheme="lut",
                scheme_params={},
                attack="sat",
                attack_params={},
                engine="sharded",
                engine_used="sharded",
                circuit="c880",
                scale=0.2,
                effort=1,
                seed=1,
                status=status,
                key_size=16,
                gates=100,
                dips_per_task=[1, 1],
                max_dips=1,
                uniform=True,
                key_ints=[0, 0],
                oracle_queries=2,
                min_seconds=0.1,
                mean_seconds=0.1,
                max_seconds=0.1,
                wall_seconds=0.2,
                encode_seconds=0.0,
                baseline_seconds=1.0,
                baseline_status=baseline_status,
                baseline_dips=3,
                ratio=0.1,
            )
            return MatrixResult(spec, [cell])

        assert _matrix_status(grid("ok")) == "ok"
        assert _matrix_status(grid("partial")) == "partial"
        assert _matrix_status(grid("ok", "timeout")) == "partial"
        assert _matrix_status(MatrixResult(spec, [])) == "partial"

    def test_cancelled_partial_table1_renders_missing_entries(self):
        from repro.experiments.table1 import run_table1
        from repro.service import render_response

        payload = run_table1(
            key_sizes=(3,), efforts=(0, 1), scale=0.12
        ).to_payload()
        del payload["cells"][1]  # the run stopped before (3, 1)
        response = Response(
            request_kind="experiment",
            status="cancelled",
            result={"experiment": "table1", "result": payload},
        )
        lines = render_response(response).splitlines()
        assert "N=1" in lines[1]
        assert [entry.strip() for entry in lines[-1].split(" | ")] == [
            "3", "7", "-",
        ]

    def test_finished_jobs_are_pruned(self):
        service = Service(retain_finished=2)
        for i in range(5):
            service.run(BenchRequest(circuit="c432", scale=0.12))
        # Only the retained finished jobs (plus none running) remain.
        assert len(service._jobs) <= 3
        service.run(BenchRequest(circuit="c432", scale=0.12))
        assert len(service._jobs) <= 3

    def test_concurrent_jobs_share_the_slot_budget(self):
        # Two concurrent jobs against a one-slot service: every task
        # execution is serialized through the shared semaphore, yet
        # both jobs stream and complete.
        service = Service(jobs=1)
        request = MatrixRequest(**{**_TINY_MATRIX, "seeds": [0, 1]})
        jobs = [service.submit(request) for _ in range(2)]
        for job in jobs:
            events = list(job.events())
            assert sum(e.type == "cell_done" for e in events) == 2
            assert job.result().status == "ok"


class TestSecondReviewHardening:
    @pytest.mark.parametrize("engine", ["sharded", "reference"])
    def test_parallel_attack_respects_a_one_slot_service(
        self, engine, monkeypatch
    ):
        # On a jobs=1 service (a stock daemon) a parallel attack stays
        # inside the budget on either engine: sub-tasks run through the
        # service runner instead of a private cpu_count pool (no pool
        # is ever built), and the attack still succeeds.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool escaped the service budget")

        monkeypatch.setattr(
            "repro.runner.executor.ProcessPoolExecutor", no_pool
        )
        request = AttackRequest(
            circuit="c1908",
            scheme="sarlock",
            scheme_params={"key_size": 4},
            effort=1,
            scale=0.2,
            parallel=True,
            engine=engine,
        )
        response = Service(jobs=1).run(request)
        assert response.status == "ok"
        assert response.result["cells"][0]["composition_equivalent"] is True

    def test_render_cancelled_partial_payload(self):
        from repro.service import render_response

        response = Response(
            request_kind="experiment",
            status="cancelled",
            result={"completed": []},
        )
        assert "cancelled" in render_response(response)

    def test_auto_ids_skip_client_claimed_ids(self):
        service = Service()
        service.run(BenchRequest(circuit="c432", scale=0.12), job_id="job-1")
        auto = service.submit(BenchRequest(circuit="c432", scale=0.12))
        assert auto.id != "job-1"
        auto.result()
