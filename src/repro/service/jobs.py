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

from repro.attacks.registry import SUCCESS_STATUSES
from repro.runner import ResultCache, Runner, TaskResult, TaskSpec
from repro.scenarios.spec import ScenarioSpec
from repro.service.envelopes import (
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    ExperimentRequest,
    MetricsRequest,
    Response,
    experiment_entry,
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
            drivers' ``parallel=`` flag).  That pool, like the
            drivers', is ``cpu_count`` wide and not bounded by
            ``jobs``: a one-circuit ``table2`` experiment on
            ``Service(jobs=1)`` forks a 2-worker pool on a 2-CPU
            machine.  A parallel ``attack`` job is the exception: its
            sub-attacks fan out through the job's runner, inside the
            slot budget.  A pool owned by the service is ROADMAP
            item 2.
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

    spec: ScenarioSpec = job.request
    job.emit("job_started", {"kind": spec.kind, "total": spec.total_tasks})
    result = run_matrix(
        spec,
        runner=service._runner_for(job),
        inner_parallel=service.inner_parallel,
    )
    return result.to_payload(), _matrix_status(result)


def _execute_experiment(service: Service, job: Job) -> tuple[dict, str]:
    from repro.scenarios.matrix import MatrixResult

    request: ExperimentRequest = job.request
    driver, _ = experiment_entry(request.experiment)
    job.emit("job_started", {"kind": request.kind, "experiment": request.experiment})
    result = driver(runner=service._runner_for(job), **request.params)
    if isinstance(result, MatrixResult):
        payload, status = result.to_payload(), _matrix_status(result)
    else:  # a figure: Figure 1's one unit, Figure 2's spec and reports
        payload, status = asdict(result), "ok" if _unit_ok(result) else "partial"
    return {"experiment": request.experiment, "result": payload}, status


#: Status attributes a matrix cell or figure may carry.
_STATUS_ATTRS = ("status", "baseline_status")
#: CEC verdicts a cell or figure may carry (``None`` = not run).
_CEC_ATTRS = ("composition_equivalent", "incorrect_pair_equivalent")


def _unit_ok(unit) -> bool:
    """Did one matrix cell or figure fully succeed?

    Every status it carries must be a success (``"ok"``, or AppSAT's
    ``"settled"``) and no CEC verdict it carries may be ``False``.
    """
    for attr in _STATUS_ATTRS:
        value = getattr(unit, attr, None)
        if value is not None and value not in SUCCESS_STATUSES:
            return False
    return all(getattr(unit, attr, None) is not False for attr in _CEC_ATTRS)


def _matrix_status(result) -> str:
    """``ok`` when the grid is complete and every cell is ok, else
    ``partial``."""
    complete = len(result.cells) == result.spec.size
    ok = complete and all(map(_unit_ok, result.cells))
    return "ok" if ok else "partial"


def _execute_attack(service: Service, job: Job) -> tuple[dict, str]:
    from repro.scenarios.matrix import MatrixResult, evaluate_cell

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
    spec = request.spec()
    (task,) = spec.expand()
    # A parallel attack on either engine fans out through the service
    # runner, never a private cpu_count pool, so it stays inside the
    # shared worker budget (serial on a `--jobs 1` daemon; the CLI
    # widens its one-shot service for `attack --parallel`).  A serial
    # attack gets no runner: multikey_attack fans the sharded engine
    # out whenever it has one, and runs every shard in-process without.
    # The cell itself is not cached, as a grid cell would be.
    runner = service._runner_for(job) if request.parallel else None
    cell = evaluate_cell(
        {**task.worker_params, "parallel": request.parallel}, runner
    )
    result = MatrixResult(spec, [cell])
    return result.to_payload(), _matrix_status(result)


def _execute_metrics(service: Service, job: Job) -> tuple[dict, str]:
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
    results = service._runner_for(job).run(request.spec().expand_metrics())
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
    ScenarioSpec: _execute_matrix,
    ExperimentRequest: _execute_experiment,
    AttackRequest: _execute_attack,
    MetricsRequest: _execute_metrics,
    BenchRequest: _execute_bench,
}
