"""In-memory span recorder that instruments the program from outside.

The benchmark never edits ``src/``: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that opens a span around the
call, and rebinds every ``from ... import`` copy of it inside the
``repro`` package, so callers that imported the name directly are
traced too.  :meth:`Tracer.restore` puts every original back.

A span records its name, start, end, its own id and its parent's id
(the span open in the same thread when it started), plus a few exact
counts attached by the wrapper (solver propagations, clauses added,
oracle queries, ...).  Pool workers are forked from the traced process,
so they inherit the wrappers: the wrapped task shim writes each
worker's spans to a spool directory when its task ends, and
:meth:`Tracer.collect_spool` merges them into the parent's list when
the run ends.  Span ids carry the process id in their high bits, so a
worker span's parent id (inherited from the dispatching span at fork
time) still names the parent-process span that caused it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


class Span:
    """One timed call: ``[start, end)`` on ``time.perf_counter``."""

    __slots__ = ("name", "start", "end", "sid", "parent", "pid", "thread", "counts")

    def __init__(self, name, start, sid, parent, pid, thread):
        self.name = name
        self.start = start
        self.end = start
        self.sid = sid
        self.parent = parent
        self.pid = pid
        self.thread = thread
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, name: str, value: float = 1) -> None:
        counts = self.counts
        if counts is None:
            counts = self.counts = {}
        counts[name] = counts.get(name, 0) + value

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.sid, self.parent,
                self.pid, self.thread, self.counts]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        name, start, end, sid, parent, pid, thread, counts = row
        span = cls(name, start, sid, parent, pid, thread)
        span.end = end
        span.counts = counts
        return span


class Tracer:
    """Spans and counts for one traced pass, kept in memory.

    ``spool`` is a directory the forked pool workers write their spans
    to; it must exist and be private to this tracer.
    """

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spans: list[Span] = []
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._undo: list[tuple[object, str, object]] = []
        self._dumps = itertools.count(1)
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _after_fork(self) -> None:
        # The child keeps the wrappers and the dispatching span as its
        # current parent, but not the parent's finished spans.
        self._pid = os.getpid()
        self.spans = []

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(
            name,
            time.perf_counter(),
            (self._pid << 32) | next(self._ids),
            None if parent is None else parent.sid,
            self._pid,
            threading.current_thread().name,
        )
        return span, self._current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open`/:meth:`close`."""
        span, token = self.open(name)
        try:
            yield span
        finally:
            self.close(span, token)

    def count(self, name: str, value: float = 1) -> None:
        """Add to a count on the innermost open span of this thread."""
        span = self._current.get()
        if span is not None:
            span.add(name, value)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        ``owner`` is a module or a class.  Module-level copies of the
        original inside the ``repro`` package are rebound as well.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = functools.update_wrapper(make_wrapper(original), original)
        self._set(owner, attr, wrapper)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is not owner and name.startswith("repro") and (
                    module.__dict__.get(attr) is original
                ):
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original wrapped by :meth:`wrap`."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def timed(self, name: str, counts=None):
        """Wrapper factory: one span per call, ``counts(span, result,
        args)`` may attach exact counts taken from the call."""

        def make(fn):
            def wrapper(*args, **kwargs):
                span, token = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span, token)
                if counts is not None:
                    counts(span, result, args)
                return result

            return wrapper

        return make

    def timed_generator(self, name: str):
        """Wrapper factory for a generator function: the span covers
        the whole iteration."""

        def make(fn):
            def wrapper(*args, **kwargs):
                span, token = self.open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self.close(span, token)

            return wrapper

        return make

    # ------------------------------------------------------------------
    # Worker spool
    # ------------------------------------------------------------------

    def dump_worker_spans(self) -> None:
        """In a forked worker: write and forget the spans recorded so far."""
        if self._pid == self.main_pid or not self.spans:
            return
        path = self.spool / f"{self._pid}-{next(self._dumps)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([span.to_list() for span in self.spans]))
        tmp.rename(path)
        self.spans = []

    def collect_spool(self) -> int:
        """Merge every worker dump into :attr:`spans`; returns the count."""
        merged = 0
        for path in sorted(self.spool.glob("*.json")):
            self.spans.extend(Span.from_list(row) for row in json.loads(path.read_text()))
            path.unlink()
            merged += 1
        return merged


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its same-thread children cover.

    Children in the same process and thread run one after another, so
    their durations add up.  Spans in other processes (pool workers)
    are not subtracted; the layer report attributes them separately.
    """
    by_id = {span.sid: span for span in spans}
    covered: dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.pid == span.pid and parent.thread == span.thread:
            covered[parent.sid] = covered.get(parent.sid, 0.0) + span.duration
    return {span.sid: span.duration - covered.get(span.sid, 0.0) for span in spans}
