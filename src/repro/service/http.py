"""``repro serve --http`` — the HTTP/JSON gateway over the job service.

The third transport for the PR-5 envelopes: the same versioned
request/response dataclasses and typed event stream as the stdio/TCP
JSON-lines daemon, reachable by anything that can speak HTTP.  Stdlib
only (``http.server``) — no new hard dependencies.

Endpoints::

    POST /v1/jobs               submit one request envelope (JSON body,
                                optional "id"); the response streams
                                chunked JSON lines — every job event,
                                then the terminal response envelope —
                                byte-identical, line for line, to what
                                the stdio/TCP daemon writes for the
                                same job.
    GET  /v1/jobs/<id>          point-in-time snapshot of a submitted
                                job (status + completed units).
    POST /v1/jobs/<id>/cancel   cooperative cancellation.
    GET  /v1/health             daemon liveness + load counters.
    POST /v1/shutdown           stop accepting (running jobs finish).

Backpressure is explicit: when the service's admission control
(``Service(max_pending=...)``) refuses a submission, the gateway
answers **503** with a ``Retry-After`` header and a ``queue_full``
error envelope carrying the same ``retry_after_seconds`` hint —
clients back off and retry instead of piling onto an unbounded queue.
Malformed bodies get 400, oversized ones 413, unknown paths 404; every
error body is a regular error ``Response`` envelope, so HTTP clients
parse exactly one wire schema.

A disconnected or slow client never hurts the service: event streaming
happens on the per-connection handler thread, and a broken pipe simply
stops the stream — the job runs to completion and its artifacts land
in the shared cache (same contract as the line daemon).

``ready`` on the server object is set once ``serve_forever`` is
polling; harnesses that run the gateway on a thread wait on it instead
of sleeping.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.daemon import (
    encode_line, error_response, queue_full_response,
)
from repro.service.envelopes import REQUEST_KINDS, from_dict, to_dict
from repro.service.jobs import QueueFullError, Service

#: Largest accepted request body, in bytes (413 past this).
MAX_BODY_BYTES = 8_000_000


class _GatewayHandler(BaseHTTPRequestHandler):
    """One HTTP connection; the shared Service hangs off the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve-http/1"

    # The gateway is machine-facing; request logging on stderr would
    # interleave with the CLI's own output.  Opt back in via subclass.
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def service(self) -> Service:
        return self.server.service

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/v1/health":
            service = self.service
            self._send_json(
                200,
                {
                    "status": "ok",
                    "active_jobs": service.active_count(),
                    "jobs": service.jobs,
                    "max_pending": service.max_pending,
                },
            )
            return
        job_id = self._job_path_id()
        if job_id is not None:
            try:
                job = self.service.job(job_id)
            except KeyError:
                self._send_json(
                    404, error_response(job_id, f"no such job {job_id!r}")
                )
                return
            self._send_json(200, job.snapshot())
            return
        self._send_json(404, error_response("", f"no such path {self.path!r}"))

    def do_POST(self) -> None:
        if self.path == "/v1/jobs":
            self._submit()
            return
        if self.path == "/v1/shutdown":
            self._send_json(200, {"status": "shutting_down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        job_id = self._job_path_id(suffix="/cancel")
        if job_id is not None:
            try:
                self.service.job(job_id).cancel()
            except KeyError:
                self._send_json(
                    404, error_response(job_id, f"no such job {job_id!r}")
                )
                return
            self._send_json(200, {"job_id": job_id, "cancelled": True})
            return
        self._send_json(404, error_response("", f"no such path {self.path!r}"))

    def _job_path_id(self, suffix: str = "") -> str | None:
        prefix = "/v1/jobs/"
        if not (self.path.startswith(prefix) and self.path.endswith(suffix)):
            return None
        job_id = self.path[len(prefix) : len(self.path) - len(suffix)]
        return job_id if job_id and "/" not in job_id else None

    # ------------------------------------------------------------------
    # Submission + streaming
    # ------------------------------------------------------------------

    def _submit(self) -> None:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._send_json(411, error_response("", "Content-Length required"))
            return
        if length < 0:  # rfile.read(-1) would block until the client closes
            self._send_json(400, error_response("", "negative Content-Length"))
            return
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                error_response(
                    "",
                    f"request body too large ({length} bytes > "
                    f"{MAX_BODY_BYTES})",
                ),
            )
            return
        body = self.rfile.read(length)
        try:
            obj = json.loads(body)
        except (ValueError, UnicodeDecodeError) as error:
            self._send_json(
                400, error_response("", f"not valid JSON: {error}")
            )
            return
        if not isinstance(obj, dict):
            self._send_json(
                400, error_response("", "envelope must be a JSON object")
            )
            return
        kind = obj.get("kind")
        request_kind = kind if kind in REQUEST_KINDS else ""
        job_id = obj.pop("id", None)
        job_id = str(job_id) if job_id is not None else None
        try:
            request = from_dict(obj)
            job = self.service.submit(request, job_id=job_id)
        except QueueFullError as full:
            self._send_json(
                503,
                queue_full_response(
                    job_id or "", full, request_kind=request_kind
                ),
                headers={
                    "Retry-After": str(
                        max(1, math.ceil(full.retry_after_seconds))
                    )
                },
            )
            return
        except ValueError as error:  # EnvelopeError + registry misses
            self._send_json(
                400,
                error_response(
                    job_id or "", str(error), request_kind=request_kind
                ),
            )
            return
        self._stream_job(job)

    def _stream_job(self, job) -> None:
        """Chunk the job's event lines, then its terminal response.

        The payload of each chunk is exactly one ``encode_line`` line —
        the same bytes the stdio/TCP daemon writes — so an HTTP client
        that joins the decoded chunks reads an identical JSON-lines
        stream.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for event in job.events():
                self._write_chunk(encode_line(event.to_dict()))
            self._write_chunk(encode_line(to_dict(job.result())))
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError, OSError):
            # Client went away mid-stream; the job keeps running and
            # its artifacts still land in the shared cache.
            self.close_connection = True

    def _write_chunk(self, text: str) -> None:
        """One chunk in one (unbuffered) socket write."""
        data = text.encode("utf-8")
        self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))

    def _send_json(
        self, status: int, payload: dict, headers: dict | None = None
    ) -> None:
        body = encode_line(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True


class HTTPGateway(ThreadingHTTPServer):
    """The HTTP flavour: one thread per connection, one shared service."""

    allow_reuse_address = True
    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 makes the kernel
    #: reset connections when a synchronized client burst arrives —
    #: the load harness sees ECONNRESET at ~64 concurrent clients.
    #: Admission control belongs to ``Service(max_pending=...)``, which
    #: answers with an explicit 503; the accept queue should never be
    #: the limiting (and silent) one.
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], service: Service) -> None:
        super().__init__(address, _GatewayHandler)
        self.service = service
        self.ready = threading.Event()

    def service_actions(self) -> None:  # first poll => serving
        self.ready.set()
        super().service_actions()


def create_http_server(
    service: Service, host: str = "127.0.0.1", port: int = 0
) -> HTTPGateway:
    """Bind the HTTP gateway (``port=0`` picks a free port; see
    ``server.server_address``).  Call ``serve_forever()`` to run —
    tests and the load harness run it on a thread, the CLI runs it in
    the foreground."""
    return HTTPGateway((host, port), service)
