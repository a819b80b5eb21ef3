"""Shared service-layer fixtures: readiness-signalled daemons.

Every in-process daemon here is started the same way: bind, serve on a
thread, then **wait on the server's ``ready`` event** before handing
it to a test.  No sleeps, no retry loops — the load harness surfaced
exactly this class of timing-dependent startup as the flake source, so
the pattern lives in one place.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.runner import ResultCache
from repro.service import SCHEMA_VERSION, Service
from repro.service.daemon import create_tcp_server
from repro.service.http import create_http_server


def matrix_request(job_id: str, seeds=(0,), key_size: int = 3) -> dict:
    """The tiny one-scheme grid every daemon test submits."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "matrix",
        "id": job_id,
        "schemes": [["sarlock", {"key_size": key_size}]],
        "circuits": ["c432"],
        "scale": 0.12,
        "efforts": [1],
        "seeds": list(seeds),
    }


def serve_on_thread(server):
    """Run ``serve_forever`` on a daemon thread; block until serving."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.ready.wait(10), "daemon never reached its serve loop"
    return thread


def shutdown_server(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def service(tmp_path):
    """One Service over a fresh on-disk cache."""
    return Service(
        jobs=2, cache=ResultCache(tmp_path / "daemon-cache")
    )


@pytest.fixture
def tcp_daemon(service):
    """An in-process TCP daemon on an ephemeral port, shared cache."""
    server = create_tcp_server(service, port=0)
    thread = serve_on_thread(server)
    try:
        yield server
    finally:
        shutdown_server(server, thread)


@pytest.fixture
def http_daemon(service):
    """An in-process HTTP gateway on an ephemeral port, shared cache."""
    server = create_http_server(service, port=0)
    thread = serve_on_thread(server)
    try:
        yield server
    finally:
        shutdown_server(server, thread)


def talk(address, lines: list, timeout: float = 120.0) -> list[dict]:
    """Send JSON lines over TCP, close the write side, read every reply.

    Dict lines are encoded as JSON; raw strings go down the wire
    verbatim (fault tests use them to send garbage and oversized
    lines).
    """
    with socket.create_connection(address[:2], timeout=timeout) as conn:
        with conn.makefile("rw", encoding="utf-8") as stream:
            for line in lines:
                if not isinstance(line, str):
                    line = json.dumps(line)
                stream.write(line + "\n")
            stream.flush()
            conn.shutdown(socket.SHUT_WR)
            return [json.loads(reply) for reply in stream]


class ExecutorGate:
    """Hooks for a deterministically *blocking* job executor.

    ``started`` is set when a gated job begins executing; the job then
    parks until ``release`` is set.  This is how fault/backpressure
    tests hold a job "in flight" for exactly as long as they need —
    no timing assumptions anywhere.
    """

    def __init__(self) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.runs = 0


@pytest.fixture
def gated_bench(monkeypatch):
    """Make every BenchRequest block on an :class:`ExecutorGate`."""
    from repro.service import jobs as jobs_module
    from repro.service.envelopes import BenchRequest

    gate = ExecutorGate()

    def blocked(service, job):
        job.emit("job_started", {"kind": "bench", "total": 1})
        gate.runs += 1
        gate.started.set()
        if not gate.release.wait(timeout=60):
            raise TimeoutError("gated bench job was never released")
        return {"name": "gated", "text": ""}, "ok"

    monkeypatch.setitem(jobs_module._EXECUTORS, BenchRequest, blocked)
    yield gate
    gate.release.set()  # never leave a job parked past the test


def bench_request(job_id: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench",
        "id": job_id,
        "circuit": "c432",
        "scale": 0.3,
    }
