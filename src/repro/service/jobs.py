"""Job execution: ``submit(request) -> Job`` with streaming events.

:class:`Service` is the long-lived execution front-end.  It owns the
shared execution configuration — worker-pool width and the on-disk
:class:`~repro.runner.cache.ResultCache` — and turns request envelopes
(:mod:`repro.service.envelopes`) into running :class:`Job` objects.
Each job executes on its own thread through a per-job
:class:`~repro.runner.Runner` that shares the service's cache, so
concurrent jobs (a daemon's clients, parallel CLI invocations inside
one process) deduplicate work through one artifact store.

A :class:`Job` exposes the streaming surface the CLI and the daemon
are both built on:

* :meth:`Job.events` — iterate typed :class:`~repro.service.events.Event`
  values (``job_started`` ... ``job_done``) as they happen,
* :meth:`Job.result` — block for the terminal
  :class:`~repro.service.envelopes.Response`,
* :meth:`Job.cancel` — cooperative cancellation (between task
  completions; the run keeps what already finished),
* :meth:`Job.snapshot` — a partial-result view of completed units.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from dataclasses import asdict

from repro.runner import ResultCache, Runner, TaskResult, TaskSpec
from repro.service.envelopes import (
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    ExperimentRequest,
    MatrixRequest,
    MetricsRequest,
    Response,
    _experiment_driver,
)
from repro.service.events import Event

#: Queue sentinel marking the end of a job's event stream.
_STREAM_END = object()


class QueueFullError(RuntimeError):
    """Admission control refused a submission: the job table is full.

    Raised by :meth:`Service.submit` when ``max_pending`` unfinished
    jobs are already admitted.  Transports turn this into an explicit
    backpressure response (a ``queue_full`` error envelope over
    JSON lines, HTTP 503 + ``Retry-After`` over the gateway) instead
    of letting an unbounded queue absorb — and then time out — every
    burst.  :attr:`retry_after_seconds` is the service's load-based
    hint for when to try again.
    """

    def __init__(self, active: int, limit: int, retry_after_seconds: float):
        super().__init__(
            f"job queue is full ({active} active >= max_pending {limit}); "
            f"retry in {retry_after_seconds:g}s"
        )
        self.active = active
        self.limit = limit
        self.retry_after_seconds = retry_after_seconds


class Job:
    """One submitted request: an event stream plus a pending response.

    Jobs are created by :meth:`Service.submit`; construct them directly
    only in tests.  The event stream is single-consumer: ``events()``
    drains a queue.  ``result()`` and ``snapshot()`` are independent of
    event consumption and safe from any thread.
    """

    def __init__(self, job_id: str, request) -> None:
        self.id = job_id
        self.request = request
        self.status = "pending"
        self.submitted_unix = time.time()
        self.started_unix: float | None = None
        self.finished_unix: float | None = None
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._log: list[Event] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._cancelled = threading.Event()
        self._stop_honoured = False
        self._finished = threading.Event()
        self._response: Response | None = None
        self._partial: list[dict] = []

    # ------------------------------------------------------------------
    # Consumer surface
    # ------------------------------------------------------------------

    def events(self):
        """Yield this job's events in order, ending after ``job_done``."""
        while True:
            item = self._events.get()
            if item is _STREAM_END:
                return
            yield item

    def result(self, timeout: float | None = None) -> Response:
        """Block until the job finishes; return its response envelope."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"job {self.id} still running")
        assert self._response is not None
        return self._response

    def done(self) -> bool:
        return self._finished.is_set()

    def cancel(self) -> None:
        """Request cooperative cancellation.

        The runner stops dispatching new tasks and drops queued work;
        anything already running completes and is kept.  A job that was
        already finished is unaffected.
        """
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def snapshot(self) -> dict:
        """A point-in-time partial view: status + completed unit payloads."""
        with self._lock:
            return {
                "job_id": self.id,
                "status": self.status,
                "events": len(self._log),
                "completed": list(self._partial),
            }

    # ------------------------------------------------------------------
    # Producer surface (the executing thread)
    # ------------------------------------------------------------------

    def emit(self, type: str, data: dict | None = None) -> Event:
        """Append one event to the stream (and the retained log).

        The job's admission/latency timestamps ride along on the
        lifecycle events: ``job_started`` gains ``queued_seconds``
        (submit -> execution start, i.e. time spent waiting in the
        admission queue) and ``job_done`` gains ``queued_seconds`` +
        ``run_seconds``, so every transport streams the same latency
        breakdown without computing it.
        """
        data = dict(data or {})
        if type == "job_started":
            if self.started_unix is None:
                self.started_unix = time.time()
            data.setdefault(
                "queued_seconds",
                round(self.started_unix - self.submitted_unix, 6),
            )
        elif type == "job_done":
            now = time.time()
            started = (
                self.started_unix
                if self.started_unix is not None
                else self.submitted_unix
            )
            data.setdefault(
                "queued_seconds", round(started - self.submitted_unix, 6)
            )
            data.setdefault("run_seconds", round(now - started, 6))
        with self._lock:
            event = Event(
                type=type, job_id=self.id, seq=self._seq, data=data
            )
            self._seq += 1
            self._log.append(event)
        self._events.put(event)
        return event

    def _record_completed(self, payload: dict) -> None:
        with self._lock:
            self._partial.append(payload)

    def _finish(self, response: Response) -> None:
        with self._lock:
            self.status = response.status
        self.finished_unix = time.time()
        self._response = response
        self._finished.set()
        self._events.put(_STREAM_END)

    # ------------------------------------------------------------------
    # Runner bridge: task callbacks -> typed events
    # ------------------------------------------------------------------

    def _observe_cancel(self) -> bool:
        """The runner's ``should_stop``: polling it *is* the evidence.

        A job whose work all finished before ``cancel()`` landed never
        observes the flag mid-run (the runner only polls between
        tasks), so its complete result is still reported ``ok`` —
        only runs that actually stopped early report ``cancelled``.
        """
        if self._cancelled.is_set():
            self._stop_honoured = True
            return True
        return False

    def _on_dispatch(self, spec: TaskSpec, index: int) -> None:
        self.emit(
            "cell_started", {"label": spec.describe(), "index": index}
        )

    def _on_progress(self, result: TaskResult, done: int, total: int) -> None:
        data = {
            "label": result.spec.describe(),
            "index": result.index,
            "cached": result.cached,
            "elapsed_seconds": result.elapsed_seconds,
            "done": done,
            "total": total,
        }
        status = result.artifact.get("status")
        if isinstance(status, str):
            data["status"] = status
        self._record_completed(
            {"label": result.spec.describe(), "status": status}
        )
        self.emit("cell_done", data)
        self.emit(
            "progress",
            {"done": done, "total": total, "fraction": done / max(total, 1)},
        )


class Service:
    """The execution front-end: envelopes in, jobs out.

    Attributes:
        jobs: The service-wide worker budget.  Each job's runner may
            queue up to this many tasks, but a shared slot semaphore
            bounds how many tasks execute at once *across all
            concurrent jobs* — five daemon clients against
            ``Service(jobs=8)`` share eight slots, they do not spawn
            forty workers.
        cache: The shared result cache (``None`` disables caching).
        inner_parallel: Let a job's ``2^N`` sub-attacks use their own
            pool when the outer runner will not fan out (mirrors the
            drivers' ``parallel=`` flag).
        retain_finished: How many finished jobs to keep around for
            late ``job(id)`` lookups; older finished jobs are pruned
            on submit so a long-lived daemon's memory stays bounded
            (running jobs are never pruned).
        max_pending: Admission control — the most unfinished jobs the
            service will hold at once.  A submission past the bound
            raises :class:`QueueFullError` (with a load-based
            ``retry_after_seconds`` hint) instead of queueing without
            bound; ``None`` disables the check (the library-embedded
            default — daemons should set it).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        inner_parallel: bool = False,
        retain_finished: int = 64,
        max_pending: int | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.inner_parallel = inner_parallel
        self.retain_finished = max(0, retain_finished)
        self.max_pending = max(1, max_pending) if max_pending else None
        self._slots = threading.BoundedSemaphore(self.jobs)
        self._jobs: dict[str, Job] = {}
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request, job_id: str | None = None) -> Job:
        """Validate ``request``, start it on a worker thread, return its Job.

        ``job_id`` defaults to a service-unique ``job-N``; daemon
        clients may pick their own ids to correlate streams.  Raises
        :class:`QueueFullError` when admission control
        (``max_pending``) refuses the submission.
        """
        executor = _EXECUTORS.get(type(request))
        if executor is None:
            raise EnvelopeError(
                f"not a request envelope: {type(request).__name__}"
            )
        with self._lock:
            if self.max_pending is not None:
                active = sum(
                    1 for job in self._jobs.values() if not job.done()
                )
                if active >= self.max_pending:
                    raise QueueFullError(
                        active,
                        self.max_pending,
                        self._retry_after_hint(active),
                    )
            if job_id is None:
                # Skip auto ids a client already claimed for itself.
                job_id = f"job-{next(self._counter)}"
                while job_id in self._jobs:
                    job_id = f"job-{next(self._counter)}"
            if job_id in self._jobs and not self._jobs[job_id].done():
                raise EnvelopeError(f"job id {job_id!r} is already running")
            job = Job(job_id, request)
            self._jobs[job_id] = job
            self._prune_finished()
        thread = threading.Thread(
            target=self._run_job,
            args=(job, executor),
            name=f"repro-service-{job_id}",
            daemon=True,
        )
        thread.start()
        return job

    def run(self, request, job_id: str | None = None) -> Response:
        """Submit and block for the response (events are still logged)."""
        return self.submit(request, job_id=job_id).result()

    def job(self, job_id: str) -> Job:
        """Look up a submitted job by id (KeyError on a miss)."""
        return self._jobs[job_id]

    def active_count(self) -> int:
        """How many admitted jobs have not finished yet."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if not job.done())

    def job_count(self) -> int:
        """Total jobs in the table (active + retained finished)."""
        with self._lock:
            return len(self._jobs)

    def _retry_after_hint(self, active: int) -> float:
        """A load-based backoff hint: roughly one worker-slot drain.

        With ``active`` jobs contending for ``jobs`` execution slots,
        one queue position drains every ``active / jobs`` task-times;
        clamped to [1, 30] seconds so clients neither hammer nor stall.
        """
        return round(min(30.0, max(1.0, active / self.jobs)), 1)

    def _prune_finished(self) -> None:
        """Drop the oldest finished jobs beyond ``retain_finished``.

        Called under ``self._lock``.  Jobs insert in submission order
        (dicts preserve it), so the oldest finished entries go first;
        clients holding a :class:`Job` reference keep it alive —
        pruning only forgets the service-side lookup.
        """
        finished = [
            job_id for job_id, job in self._jobs.items() if job.done()
        ]
        for job_id in finished[: max(0, len(finished) - self.retain_finished)]:
            del self._jobs[job_id]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _runner_for(self, job: Job) -> Runner:
        """A per-job runner wired into the job's event stream.

        The service-wide slot semaphore rides along, so this runner's
        tasks count against the one worker budget all concurrent jobs
        share.
        """
        return Runner(
            jobs=self.jobs,
            cache=self.cache,
            progress=job._on_progress,
            on_dispatch=job._on_dispatch,
            should_stop=job._observe_cancel,
            slots=self._slots,
        )

    def _run_job(self, job: Job, executor) -> None:
        job.status = "running"
        job.started_unix = time.time()
        try:
            payload, status = executor(self, job)
        except Exception as error:  # noqa: BLE001 — jobs must not kill the daemon
            if job._stop_honoured:
                # The runner stopped early on cancel() and a
                # fixed-shape consumer (e.g. figure1's single task)
                # choked on the partial result list: that is a
                # cancellation, not a failure.  Completed units ride
                # along in the payload.
                response = Response(
                    request_kind=type(job.request).kind,
                    status="cancelled",
                    job_id=job.id,
                    result={"completed": job.snapshot()["completed"]},
                )
            else:
                job.emit(
                    "warning", {"message": f"{type(error).__name__}: {error}"}
                )
                response = Response(
                    request_kind=type(job.request).kind,
                    status="error",
                    job_id=job.id,
                    error=str(error) or type(error).__name__,
                    result={"traceback": traceback.format_exc()},
                )
        else:
            # "Cancelled" only when the run actually stopped early:
            # a cancel() landing after the last task completed leaves
            # a full result, which stays "ok".
            if job._stop_honoured and status != "error":
                status = "cancelled"
            response = Response(
                request_kind=type(job.request).kind,
                status=status,
                job_id=job.id,
                result=payload,
            )
        job.emit("job_done", {"status": response.status})
        job._finish(response)


# ----------------------------------------------------------------------
# Per-request executors.  Each returns (result payload, status).
# ----------------------------------------------------------------------


def _execute_matrix(service: Service, job: Job) -> tuple[dict, str]:
    from repro.scenarios.matrix import run_matrix

    request: MatrixRequest = job.request
    spec = request.to_spec()
    job.emit(
        "job_started", {"kind": request.kind, "total": spec.total_tasks}
    )
    result = run_matrix(
        spec,
        runner=service._runner_for(job),
        inner_parallel=service.inner_parallel,
    )
    complete = len(result.cells) == spec.size
    ok = complete and all(
        cell.status == "ok" and cell.composition_equivalent is not False
        for cell in result.cells
    )
    return result.to_payload(), "ok" if ok else "partial"


def _execute_experiment(service: Service, job: Job) -> tuple[dict, str]:
    request: ExperimentRequest = job.request
    driver = _experiment_driver(request.experiment)
    params = dict(request.params)
    if request.experiment == "table2":
        params = _coerce_table2_params(params)
    job.emit("job_started", {"kind": request.kind, "experiment": request.experiment})
    result = driver(runner=service._runner_for(job), **params)
    status = "ok" if _experiment_rows_ok(result) else "partial"
    return (
        {"experiment": request.experiment, "result": asdict(result)},
        status,
    )


#: Per-row status attributes an experiment result may carry (table2
#: splits its verdict into a multikey arm and a baseline arm).
_ROW_STATUS_ATTRS = ("status", "multikey_status", "baseline_status")


def _experiment_rows_ok(result) -> bool:
    """Did every row/cell of an experiment result fully succeed?"""
    rows = getattr(result, "rows", None) or getattr(result, "cells", None)
    if rows is None:
        return True
    for row in rows:
        for attr in _ROW_STATUS_ATTRS:
            value = getattr(row, attr, None)
            if value is not None and value not in ("ok", "settled"):
                return False
    return True


def _coerce_table2_params(params: dict) -> dict:
    """Rebuild table2's ``spec`` knob from its JSON form."""
    from repro.locking.lut_lock import LutModuleSpec

    spec = params.get("spec")
    if isinstance(spec, str):
        params["spec"] = LutModuleSpec.by_name(spec)
    elif isinstance(spec, dict):
        params["spec"] = LutModuleSpec(**spec)
    if params.get("circuits") is not None:
        params["circuits"] = tuple(params["circuits"])
    return params


def _execute_attack(service: Service, job: Job) -> tuple[dict, str]:
    from repro.bench_circuits.corpus import resolve_circuit
    from repro.core.compose import verify_composition
    from repro.core.multikey import multikey_attack
    from repro.locking.registry import lock_circuit

    request: AttackRequest = job.request
    job.emit(
        "job_started",
        {
            "kind": request.kind,
            "scheme": request.scheme,
            "attack": request.attack,
            "total": 1 << request.effort,
        },
    )
    original = resolve_circuit(request.circuit, request.scale)
    scheme_params = dict(request.scheme_params)
    scheme_params.setdefault("seed", request.seed)
    locked = lock_circuit(request.scheme, original, **scheme_params)

    # A parallel attack on either engine fans out through the service
    # runner, never a private cpu_count pool, so it stays inside the
    # shared worker budget (serial on a `--jobs 1` daemon; the CLI
    # widens its one-shot service for `attack --parallel`).  A serial
    # attack gets no runner: multikey_attack fans the sharded engine
    # out whenever it has one, and runs every shard in-process without.
    runner = service._runner_for(job) if request.parallel else None
    result = multikey_attack(
        locked,
        original,
        effort=request.effort,
        parallel=request.parallel,
        time_limit_per_task=request.time_limit_per_task,
        seed=request.seed,
        engine=request.engine,
        attack=request.attack,
        attack_params=request.attack_params,
        solver=request.solver,
        opt=request.opt,
        runner=runner,
    )

    exact = result.status == "ok" and all(
        task.status == "ok" for task in result.subtasks
    )
    equivalent = None
    if exact:
        equivalent = bool(
            verify_composition(
                locked, result.splitting_inputs, result.keys, original
            )
        )
    payload = {
        "locked": str(locked),
        "result": result.to_payload(),
        "exact": exact,
        "composition_equivalent": equivalent,
    }
    return payload, result.status


def _execute_metrics(service: Service, job: Job) -> tuple[dict, str]:
    from repro.metrics import corruption_cell_task

    request: MetricsRequest = job.request
    job.emit(
        "job_started",
        {
            "kind": request.kind,
            "scheme": request.scheme,
            "metrics": list(request.metrics),
            "total": 1,
        },
    )
    task = corruption_cell_task(
        scheme=request.scheme,
        scheme_params=request.scheme_params,
        circuit=request.circuit,
        scale=request.scale,
        effort=request.effort,
        seed=request.seed,
        metrics=request.metrics,
        key_samples=request.key_samples,
        metrics_seed=request.metrics_seed,
        opt=request.opt,
    )
    results = service._runner_for(job).run([task])
    if not results:
        return {"completed": job.snapshot()["completed"]}, "cancelled"
    return {"report": results[0].artifact}, "ok"


def _execute_bench(service: Service, job: Job) -> tuple[dict, str]:
    from repro.bench_circuits.corpus import resolve_circuit
    from repro.circuit.bench import format_bench

    request: BenchRequest = job.request
    job.emit("job_started", {"kind": request.kind, "total": 1})
    netlist = resolve_circuit(request.circuit, request.scale)
    return {"name": str(netlist), "text": format_bench(netlist)}, "ok"


_EXECUTORS = {
    MatrixRequest: _execute_matrix,
    ExperimentRequest: _execute_experiment,
    AttackRequest: _execute_attack,
    MetricsRequest: _execute_metrics,
    BenchRequest: _execute_bench,
}
