"""HTTP gateway tests: endpoints, backpressure, cross-transport parity.

The parity tests are the contract that makes three transports one
protocol: for the same job over a warm shared cache, stdio, TCP and
HTTP must produce the *same JSON lines* — the terminal response
byte-for-byte, the events equal once wall-clock timing fields are
stripped.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading

import pytest

from repro.runner import ResultCache
from repro.service import SCHEMA_VERSION, Service
from repro.service.daemon import handle_stream
from repro.service.http import (
    MAX_BODY_BYTES,
    _GatewayHandler,
    create_http_server,
)

from tests.service.conftest import (
    bench_request,
    matrix_request,
    serve_on_thread,
    shutdown_server,
    talk,
)

#: Event data fields that depend on the wall clock, not the work.
TIMING_FIELDS = {"queued_seconds", "run_seconds", "elapsed_seconds"}


def http_request(
    address,
    method: str,
    path: str,
    body: dict | str | None = None,
    timeout: float = 120.0,
):
    """One HTTP exchange; returns (status, headers, decoded body text)."""
    host, port = address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = (
            json.dumps(body) if isinstance(body, dict) else body
        )
        conn.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json"}
            if payload is not None
            else {},
        )
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        return response.status, dict(response.getheaders()), text
    finally:
        conn.close()


def submit_http(address, envelope: dict, timeout: float = 120.0):
    """POST a job and return (status, headers, parsed JSON lines, raw lines)."""
    status, headers, text = http_request(
        address, "POST", "/v1/jobs", body=envelope, timeout=timeout
    )
    raw_lines = text.splitlines(keepends=True)
    return status, headers, [json.loads(line) for line in raw_lines], raw_lines


def talk_raw(address, lines: list[dict], timeout: float = 120.0) -> list[str]:
    """Like ``talk`` but returns the raw reply lines (newline included)."""
    with socket.create_connection(address[:2], timeout=timeout) as conn:
        with conn.makefile("rw", encoding="utf-8") as stream:
            for line in lines:
                stream.write(json.dumps(line) + "\n")
            stream.flush()
            conn.shutdown(socket.SHUT_WR)
            return [reply for reply in stream]


def strip_timing(parsed_line: dict) -> dict:
    stripped = dict(parsed_line)
    if "data" in stripped:
        stripped["data"] = {
            k: v
            for k, v in stripped["data"].items()
            if k not in TIMING_FIELDS
        }
    return stripped


class TestEndpoints:
    def test_submit_streams_ndjson_events_then_response(self, http_daemon):
        status, headers, replies, _ = submit_http(
            http_daemon.server_address, matrix_request("h1")
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert headers["Transfer-Encoding"] == "chunked"
        events = [r for r in replies if r["kind"] == "event"]
        assert [e["type"] for e in events][0] == "job_started"
        assert sum(e["type"] == "cell_done" for e in events) == 1
        response = replies[-1]
        assert response["kind"] == "response"
        assert response["status"] == "ok"
        assert response["job_id"] == "h1"
        assert response["schema_version"] == SCHEMA_VERSION

    def test_health_reports_load_counters(self, http_daemon, service):
        status, _, text = http_request(
            http_daemon.server_address, "GET", "/v1/health"
        )
        assert status == 200
        health = json.loads(text)
        assert health["status"] == "ok"
        assert health["active_jobs"] == 0
        assert health["jobs"] == service.jobs
        assert health["max_pending"] == service.max_pending

    def test_job_snapshot_after_completion(self, http_daemon):
        submit_http(http_daemon.server_address, matrix_request("snap"))
        status, _, text = http_request(
            http_daemon.server_address, "GET", "/v1/jobs/snap"
        )
        assert status == 200
        snapshot = json.loads(text)
        assert snapshot["job_id"] == "snap"
        assert snapshot["status"] == "ok"
        assert len(snapshot["completed"]) == 1

    def test_unknown_job_and_path_are_404(self, http_daemon):
        status, _, text = http_request(
            http_daemon.server_address, "GET", "/v1/jobs/ghost"
        )
        assert status == 404
        assert "no such job" in json.loads(text)["error"]
        status, _, text = http_request(
            http_daemon.server_address, "GET", "/v1/nope"
        )
        assert status == 404
        status, _, text = http_request(
            http_daemon.server_address, "POST", "/v1/jobs/ghost/cancel", body={}
        )
        assert status == 404

    def test_malformed_bodies_are_400_error_envelopes(self, http_daemon):
        status, _, text = http_request(
            http_daemon.server_address, "POST", "/v1/jobs", body="{nope"
        )
        assert status == 400
        error = json.loads(text)
        assert error["kind"] == "response" and error["status"] == "error"
        assert "not valid JSON" in error["error"]

        status, _, text = http_request(
            http_daemon.server_address, "POST", "/v1/jobs", body="[1, 2]"
        )
        assert status == 400
        assert "JSON object" in json.loads(text)["error"]

        bad = matrix_request("bad")
        bad["schemes"] = [["nope", {}]]
        status, _, text = http_request(
            http_daemon.server_address, "POST", "/v1/jobs", body=bad
        )
        assert status == 400
        error = json.loads(text)
        assert "unknown locking scheme" in error["error"]
        assert error["job_id"] == "bad"

    def test_response_envelope_is_400_not_a_request(self, http_daemon, service):
        """A decodable non-request envelope is refused by ``submit``."""
        before = service.job_count()
        status, _, text = http_request(
            http_daemon.server_address,
            "POST",
            "/v1/jobs",
            body={"schema_version": SCHEMA_VERSION, "kind": "response", "id": "r"},
        )
        assert status == 400
        error = json.loads(text)
        assert error["status"] == "error"
        assert error["error"] == "not a request envelope: Response"
        assert error["job_id"] == "r"
        assert service.job_count() == before

    def test_oversized_body_is_413(self, http_daemon):
        """An absurd Content-Length is refused before the body is read."""
        host, port = http_daemon.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as conn:
            conn.sendall(
                (
                    "POST /v1/jobs HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                    "\r\n"
                ).encode("ascii")
            )
            data = b""
            while b"request body too large" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
            reply = data.decode("utf-8", "replace")
        assert reply.startswith("HTTP/1.1 413")
        assert "request body too large" in reply

    def test_negative_content_length_is_400(self, http_daemon):
        """A negative Content-Length is refused, not read until EOF
        (the socket timeout fails a handler that waits instead)."""
        host, port = http_daemon.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as conn:
            conn.sendall(
                (
                    "POST /v1/jobs HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    "Content-Length: -1\r\n"
                    "\r\n"
                ).encode("ascii")
            )
            data = b""
            while b"negative Content-Length" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
            reply = data.decode("utf-8", "replace")
        assert reply.startswith("HTTP/1.1 400")
        assert '"status": "error"' in reply


class _CountingWriter:
    """A handler's ``wfile`` that records each write (one socket send
    each: the gateway's writer is unbuffered)."""

    def __init__(self, inner, sends: list) -> None:
        self._inner = inner
        self._sends = sends

    def write(self, data) -> int:
        self._sends.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestWriteCounts:
    def test_warm_job_sends_one_write_per_line(self, http_daemon, monkeypatch):
        """Headers, one write per streamed line, the terminator."""
        sends: list[bytes] = []
        setup = _GatewayHandler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, sends)

        monkeypatch.setattr(_GatewayHandler, "setup", counting_setup)
        request = {**matrix_request("cold"), "metrics": ["corruption"],
                   "key_samples": 4}
        submit_http(http_daemon.server_address, request)
        sends.clear()
        status, _, replies, raw_lines = submit_http(
            http_daemon.server_address, {**request, "id": "warm"}
        )
        assert status == 200 and replies[-1]["status"] == "ok"
        assert [r["data"].get("cached") for r in replies
                if r.get("type") == "cell_done"] == [True, True]
        assert len(raw_lines) == 7
        assert len(sends) == 9
        assert sends[0].startswith(b"HTTP/1.1 200")
        assert [send.split(b"\r\n", 1)[1] for send in sends[1:-1]] == [
            line.encode("utf-8") + b"\r\n" for line in raw_lines
        ]
        assert sends[-1] == b"0\r\n\r\n"


class TestBackpressure:
    def test_queue_full_is_503_with_retry_after(self, tmp_path, gated_bench):
        """Admission control over HTTP: 503 + Retry-After + queue_full body."""
        service = Service(jobs=1, max_pending=1)
        server = create_http_server(service, port=0)
        thread = serve_on_thread(server)
        try:
            first: dict = {}

            def stream_first() -> None:
                status, _, replies, _ = submit_http(
                    server.server_address, bench_request("bp-1")
                )
                first["status"] = status
                first["replies"] = replies

            streamer = threading.Thread(target=stream_first)
            streamer.start()
            assert gated_bench.started.wait(30), "gated job never started"

            # The table is full: the second submission must be refused
            # with explicit backpressure, not queued or dropped.
            status, headers, text = http_request(
                server.server_address, "POST", "/v1/jobs",
                body=bench_request("bp-2"),
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            refusal = json.loads(text)
            assert refusal["status"] == "error"
            assert refusal["error"].startswith("queue_full:")
            assert refusal["result"]["retry_after_seconds"] >= 1.0
            assert refusal["job_id"] == "bp-2"

            gated_bench.release.set()
            streamer.join(timeout=60)
            assert first["status"] == 200
            assert first["replies"][-1]["status"] == "ok"

            # Capacity freed: the refused client's retry now succeeds.
            status, _, replies, _ = submit_http(
                server.server_address, bench_request("bp-2")
            )
            assert status == 200
            assert replies[-1]["status"] == "ok"
        finally:
            gated_bench.release.set()
            shutdown_server(server, thread)


class TestTransportParity:
    def test_same_job_same_lines_across_all_three_transports(
        self, service, tcp_daemon, http_daemon
    ):
        """stdio, TCP and HTTP speak *identical* JSON lines.

        One warm shared cache, one request, three transports run
        sequentially under the same job id: the terminal response line
        must match byte-for-byte, and the event lines must match once
        wall-clock timing fields are stripped from ``data``.
        """
        warm = talk(tcp_daemon.server_address, [matrix_request("warm")])
        assert warm[-1]["status"] == "ok"
        request = matrix_request("parity")

        stdio_out = io.StringIO()
        handle_stream(
            service, io.StringIO(json.dumps(request) + "\n"), stdio_out
        )
        stdio_lines = stdio_out.getvalue().splitlines(keepends=True)

        tcp_lines = talk_raw(tcp_daemon.server_address, [request])

        status, _, _, http_lines = submit_http(
            http_daemon.server_address, request
        )
        assert status == 200

        for lines in (tcp_lines, http_lines):
            assert len(lines) == len(stdio_lines)

        # Terminal response: byte-identical (warm cache => the result
        # payload, timings included, is the stored artifact).
        assert stdio_lines[-1] == tcp_lines[-1] == http_lines[-1]

        # Events: identical apart from wall-clock fields.
        stdio_events = [strip_timing(json.loads(l)) for l in stdio_lines[:-1]]
        tcp_events = [strip_timing(json.loads(l)) for l in tcp_lines[:-1]]
        http_events = [strip_timing(json.loads(l)) for l in http_lines[:-1]]
        assert stdio_events == tcp_events == http_events
        # Warm replays serve the cell straight from the cache — no
        # dispatch, so no cell_started.
        assert [e["type"] for e in stdio_events] == [
            "job_started",
            "cell_done",
            "progress",
            "job_done",
        ]

    def test_queue_full_envelope_matches_across_transports(
        self, tmp_path, gated_bench
    ):
        """The backpressure envelope is one schema on both wire types."""
        service = Service(jobs=1, max_pending=1)
        tcp = None
        http_server = create_http_server(service, port=0)
        http_thread = serve_on_thread(http_server)
        try:
            from repro.service.daemon import create_tcp_server

            tcp = create_tcp_server(service, port=0)
            tcp_thread = serve_on_thread(tcp)

            hold: dict = {}

            def stream_first() -> None:
                hold["result"] = submit_http(
                    http_server.server_address, bench_request("full-1")
                )

            streamer = threading.Thread(target=stream_first)
            streamer.start()
            assert gated_bench.started.wait(30)

            _, _, http_text = http_request(
                http_server.server_address, "POST", "/v1/jobs",
                body=bench_request("full-2"),
            )
            [tcp_line] = talk_raw(
                tcp.server_address, [bench_request("full-2")]
            )
            http_refusal = json.loads(http_text)
            tcp_refusal = json.loads(tcp_line)
            # Same envelope, field for field (the hint may differ only
            # if load changed between the two calls — it cannot here).
            assert http_refusal == tcp_refusal

            gated_bench.release.set()
            streamer.join(timeout=60)
            assert hold["result"][0] == 200
        finally:
            gated_bench.release.set()
            if tcp is not None:
                shutdown_server(tcp, tcp_thread)
            shutdown_server(http_server, http_thread)
