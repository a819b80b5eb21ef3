"""The shared task executor: process pool + cache front-end.

:class:`Runner` is the single seam every experiment driver submits
work through.  It checks the :class:`~repro.runner.cache.ResultCache`
first, fans cache misses out over a ``ProcessPoolExecutor`` (``jobs``
workers), stores fresh artifacts back, and reports per-task progress
and timing.  :meth:`Runner.run_iter` streams ``(index, result)`` pairs
as tasks complete; :meth:`Runner.run` collects them back into
submission order, so driver output is independent of scheduling.

Two optional hooks feed the service layer's event stream
(:mod:`repro.service`): ``on_dispatch`` fires when a cache miss starts
executing, ``progress`` when any task (cached or fresh) completes.
``should_stop`` is polled between completions for cooperative
cancellation — a stopped run returns the results it already has.

This is the only process pool in the codebase: both multi-key engines
(``multikey_subtask`` and ``multikey_shard_chunk`` tasks) fan out
through it too.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TypeVar

from repro.runner.cache import ResultCache
from repro.runner.task import TaskResult, TaskSpec, task_worker

_T = TypeVar("_T")

#: Progress callback: (result, completed_count, total_count).
ProgressFn = Callable[[TaskResult, int, int], None]

#: Dispatch callback: (spec, submission_index), when execution starts.
DispatchFn = Callable[[TaskSpec, int], None]

#: How often (seconds) a pooled run polls ``should_stop`` while waiting.
_STOP_POLL_SECONDS = 0.1


def chunk_evenly(items: Sequence[_T], chunks: int) -> list[list[_T]]:
    """Split ``items`` into at most ``chunks`` contiguous near-equal runs.

    Sizes differ by at most one and order is preserved; empty chunks
    are never returned.  This is the shard-to-worker assignment used by
    the sharded multi-key engine: contiguous runs keep each worker's
    solver warm across neighbouring sub-spaces.
    """
    if chunks < 1:
        raise ValueError("chunks must be positive")
    total = len(items)
    chunks = min(chunks, total)
    if chunks == 0:
        return []
    base, extra = divmod(total, chunks)
    out: list[list[_T]] = []
    index = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(list(items[index : index + size]))
        index += size
    return out


def _invoke(fn: Callable[[dict], dict], params: dict) -> tuple[dict, float]:
    """Worker-side shim: run ``fn`` and time it where it executes."""
    start = time.perf_counter()
    artifact = fn(params)
    return artifact, time.perf_counter() - start


def progress_line(
    describe: str, cached: bool, elapsed_seconds: float, done: int, total: int
) -> str:
    """The canonical one-line rendering of a finished task.

    Shared by :func:`print_progress` (the classic stderr callback) and
    the service layer's event renderer
    (:func:`repro.service.render.render_event`), so CLI progress lines
    and daemon-streamed ``cell_done`` events are formatted by exactly
    one piece of code.
    """
    status = "cached" if cached else f"{elapsed_seconds:.2f}s"
    return f"[{done}/{total}] {describe}: {status}"


def print_progress(result: TaskResult, done: int, total: int) -> None:
    """Default progress reporter (stderr, one line per finished task)."""
    print(
        progress_line(
            result.spec.describe(),
            result.cached,
            result.elapsed_seconds,
            done,
            total,
        ),
        file=sys.stderr,
        flush=True,
    )


@dataclass
class Runner:
    """Process-pool task executor with an optional on-disk cache.

    Attributes:
        jobs: Worker processes for cache misses (1 = in-process serial).
        cache: Artifact store; ``None`` disables caching entirely.
        progress: Per-task completion callback (e.g.
            :func:`print_progress`); ``None`` is silent.
        on_dispatch: Called with ``(spec, index)`` when a cache miss
            starts executing (cached tasks never dispatch).  The
            service layer turns this into ``cell_started`` events.
        should_stop: Polled between task completions; returning
            ``True`` cancels anything not yet running and ends the run
            early with whatever already finished (cooperative
            cancellation — a task in flight is never interrupted).
        slots: Optional semaphore bounding how many tasks execute at
            once *across runners*.  Each task acquires a slot before it
            runs (in-process or on the pool) and releases it on
            completion, which is how concurrent service jobs share one
            worker budget instead of multiplying pools.
    """

    jobs: int = 1
    cache: ResultCache | None = None
    progress: ProgressFn | None = None
    on_dispatch: DispatchFn | None = None
    should_stop: Callable[[], bool] | None = None
    slots: threading.Semaphore | None = None

    def pending_count(self, specs: Sequence[TaskSpec]) -> int:
        """How many of ``specs`` would actually execute (cache misses).

        A cheap pre-flight probe (no hit/miss accounting): drivers use
        it to decide whether parallelism belongs to this runner's pool
        or inside the single task that is about to run.
        """
        if self.cache is None:
            return len(specs)
        return sum(1 for spec in specs if not self.cache.contains(spec))

    def run(self, specs: Sequence[TaskSpec]) -> list[TaskResult]:
        """Execute ``specs``; results in submission order.

        A cancelled run (``should_stop``) returns only the results that
        completed, still in submission order.
        """
        results: list[TaskResult | None] = [None] * len(specs)
        for index, result in self.run_iter(specs):
            results[index] = result
        return [result for result in results if result is not None]

    def run_iter(
        self, specs: Sequence[TaskSpec]
    ) -> Iterator[tuple[int, TaskResult]]:
        """Execute ``specs``, yielding ``(index, result)`` as they finish.

        Cache hits come first (in submission order, without
        dispatching); misses follow in completion order.  ``progress``
        fires exactly once per yielded result, before the yield, so
        callback-driven consumers and iterator-driven consumers observe
        the same sequence.
        """
        total = len(specs)
        done = 0
        pending: list[tuple[int, TaskSpec]] = []

        for index, spec in enumerate(specs):
            if self._stopped():
                return
            entry = self.cache.load(spec) if self.cache else None
            if entry is not None:
                result = TaskResult(
                    spec=spec,
                    artifact=entry["artifact"],
                    elapsed_seconds=float(entry.get("elapsed_seconds", 0.0)),
                    cached=True,
                    index=index,
                )
                done += 1
                if self.progress:
                    self.progress(result, done, total)
                yield index, result
            else:
                pending.append((index, spec))

        if self.jobs > 1 and len(pending) > 1:
            yield from self._iter_pool(pending, done, total)
        else:
            for index, spec in pending:
                if self._stopped() or not self._acquire_slot():
                    return
                try:
                    if self.on_dispatch:
                        self.on_dispatch(spec, index)
                    artifact, elapsed = _invoke(
                        task_worker(spec.kind), spec.worker_params
                    )
                finally:
                    self._release_slot()
                done += 1
                yield index, self._finish(
                    index, spec, artifact, elapsed, done, total
                )

    def _stopped(self) -> bool:
        return self.should_stop is not None and self.should_stop()

    def _acquire_slot(self) -> bool:
        """Take one shared execution slot (False: stopped while waiting)."""
        if self.slots is None:
            return True
        while not self.slots.acquire(timeout=_STOP_POLL_SECONDS):
            if self._stopped():
                return False
        return True

    def _release_slot(self) -> None:
        if self.slots is not None:
            self.slots.release()

    def _iter_pool(
        self,
        pending: list[tuple[int, TaskSpec]],
        done: int,
        total: int,
    ) -> Iterator[tuple[int, TaskResult]]:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            outstanding = set()
            queue = iter(pending)
            waiting = next(queue, None)
            stopping = False
            try:
                while waiting is not None or outstanding:
                    if not stopping and self._stopped():
                        # Cooperative stop: drop queued futures but
                        # keep draining the ones already on a worker —
                        # the pool shutdown waits for them anyway, so
                        # their results must be cached and yielded,
                        # not discarded ("anything already running
                        # completes and is kept").
                        stopping = True
                        waiting = None
                        outstanding = {
                            future
                            for future in outstanding
                            if not future.cancel()
                        }
                        if not outstanding:
                            break
                    # Top up: at most one task per worker (a stop then
                    # finds only running work) while slots are free.
                    # Each in-flight task holds one slot, released by
                    # its done callback (so this never deadlocks on
                    # our own completed-but-unprocessed work).
                    while waiting is not None and len(outstanding) < workers:
                        if self.slots is not None and not self.slots.acquire(
                            blocking=False
                        ):
                            break
                        index, spec = waiting
                        future = pool.submit(
                            _invoke, task_worker(spec.kind), spec.worker_params
                        )
                        if self.slots is not None:
                            future.add_done_callback(
                                lambda _f: self._release_slot()
                            )
                        futures[future] = (index, spec)
                        outstanding.add(future)
                        if self.on_dispatch:
                            self.on_dispatch(spec, index)
                        waiting = next(queue, None)
                    if not outstanding:
                        # Every slot is held by other runners; idle a
                        # tick and retry (polling should_stop).
                        time.sleep(_STOP_POLL_SECONDS)
                        continue
                    # A finite timeout keeps the loop responsive to
                    # cancellation and to slots freed by other runners.
                    timeout = (
                        _STOP_POLL_SECONDS
                        if (self.should_stop or waiting is not None
                            or self.slots is not None)
                        else None
                    )
                    finished, outstanding = wait(
                        outstanding,
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        index, spec = futures[future]
                        artifact, elapsed = future.result()
                        done += 1
                        yield index, self._finish(
                            index, spec, artifact, elapsed, done, total
                        )
            finally:
                # Early exit (cancel or a closed consumer): drop queued
                # work so the with-block shutdown only waits for tasks
                # already on a worker.  Cancelled futures still run
                # their done callbacks, so held slots are returned.
                for future in outstanding:
                    future.cancel()

    def _finish(
        self,
        index: int,
        spec: TaskSpec,
        artifact: dict,
        elapsed: float,
        done: int,
        total: int,
    ) -> TaskResult:
        if self.cache is not None:
            self.cache.store(spec, artifact, elapsed)
        result = TaskResult(
            spec=spec,
            artifact=artifact,
            elapsed_seconds=elapsed,
            cached=False,
            index=index,
        )
        if self.progress:
            self.progress(result, done, total)
        return result
