"""Service/Job behavior: streaming, results, cancellation, snapshots."""

from __future__ import annotations

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
        total = request.to_spec().size
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
        direct = run_matrix(
            request.to_spec(), runner=Runner(cache=service.cache)
        )
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
        assert response.result["exact"] is True
        assert response.result["composition_equivalent"] is True
        text = render_response(response)
        assert text.startswith("locked: LockedCircuit(sarlock")
        assert "multi-key composition equivalent: True" in text
        # quiet rendering drops the per-shard statistics only.
        quiet = render_response(response, verbose=False)
        assert "shard 0" not in quiet and "solver totals" not in quiet
        assert "multi-key composition equivalent: True" in quiet


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
        from repro.experiments.table2 import Table2Result, Table2Row
        from repro.locking.lut_lock import LutModuleSpec
        from repro.service.jobs import _experiment_rows_ok

        def row(multikey_status, baseline_status="ok"):
            return Table2Row(
                circuit="c880",
                baseline_seconds=1.0,
                baseline_status=baseline_status,
                min_seconds=0.1,
                mean_seconds=0.1,
                max_seconds=0.1,
                multikey_status=multikey_status,
                ratio=0.1,
                baseline_dips=3,
                dips_per_task=[1],
            )

        spec = LutModuleSpec.tiny()
        ok = Table2Result(scale=0.2, effort=1, spec=spec, rows=[row("ok")])
        stalled = Table2Result(
            scale=0.2, effort=1, spec=spec, rows=[row("partial")]
        )
        baseline_stalled = Table2Result(
            scale=0.2, effort=1, spec=spec, rows=[row("ok", "timeout")]
        )
        assert _experiment_rows_ok(ok)
        assert not _experiment_rows_ok(stalled)
        assert not _experiment_rows_ok(baseline_stalled)

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
        assert response.result["composition_equivalent"] is True

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
