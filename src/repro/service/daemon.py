"""``repro serve`` — the JSON-lines job daemon (stdio and TCP).

A long-lived process that accepts request envelopes, multiplexes
concurrent jobs over one shared :class:`~repro.service.jobs.Service`
(one worker-pool budget, one on-disk result cache), and streams each
job's typed events back as they happen.

Wire protocol — one JSON object per line, in both directions:

Client -> server::

    {"schema_version": 1, "kind": "matrix", "id": "my-job", ...}   submit
    {"kind": "cancel", "id": "my-job"}                             cancel
    {"kind": "shutdown"}                                           stop serving

``id`` is the client's job handle; omitted, the service assigns
``job-N``.  Submissions are any request envelope from
:mod:`repro.service.envelopes` (``matrix`` | ``attack`` |
``experiment`` | ``bench``).

Server -> client::

    {"schema_version": 1, "kind": "event", "job_id": "my-job", "type": "cell_done", ...}
    {"schema_version": 1, "kind": "response", "job_id": "my-job", "status": "ok", ...}

Events from concurrent jobs interleave; ``job_id`` + per-job ``seq``
reorder them client-side.  Every job ends with exactly one ``response``
envelope (after its ``job_done`` event).  Malformed or invalid lines
produce an error ``response`` and the daemon keeps serving.

On stdio, EOF drains running jobs and exits.  Over TCP
(:func:`create_tcp_server`), each connection gets this same line
protocol; jobs from all connections share the one service.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading

from repro.service.envelopes import (
    REQUEST_KINDS,
    Response,
    from_dict,
    to_dict,
)
from repro.service.jobs import Job, QueueFullError, Service

#: Longest accepted request line (characters).  A client streaming an
#: absurd line gets an error response instead of exhausting daemon
#: memory one envelope at a time.
MAX_LINE_CHARS = 4_000_000


def encode_line(payload: dict) -> str:
    """The one wire encoding of an envelope/event: sorted-key JSON + LF.

    Shared by every transport (stdio, TCP, the HTTP gateway), which is
    what makes their streamed lines byte-identical for the same job.
    """
    return json.dumps(payload, sort_keys=True) + "\n"


class _LineWriter:
    """Serialize whole JSON lines onto one stream from many threads."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def write(self, payload: dict) -> None:
        line = encode_line(payload)
        with self._lock:
            try:
                self._stream.write(line)
                self._stream.flush()
            except (BrokenPipeError, ValueError, OSError):
                # Client went away mid-stream; the job keeps running
                # (its artifacts still land in the shared cache).
                pass


def _pump(job: Job, writer: _LineWriter) -> None:
    """Stream one job's events, then its terminal response envelope."""
    for event in job.events():
        writer.write(event.to_dict())
    writer.write(to_dict(job.result()))


def error_response(
    job_id: str,
    message: str,
    request_kind: str = "",
    result: dict | None = None,
) -> dict:
    """The wire dict of an error ``Response`` (every transport's)."""
    return to_dict(
        Response(
            request_kind=request_kind,
            status="error",
            job_id=job_id,
            error=message,
            result=result,
        )
    )


def queue_full_response(
    job_id: str, full: QueueFullError, request_kind: str = ""
) -> dict:
    """The explicit backpressure envelope for a refused submission.

    ``error`` starts with ``queue_full`` (machine-matchable) and
    ``result.retry_after_seconds`` carries the service's backoff hint —
    the JSON-lines twin of the HTTP gateway's 503 + ``Retry-After``.
    """
    return error_response(
        job_id,
        f"queue_full: {full}",
        request_kind=request_kind,
        result={"retry_after_seconds": full.retry_after_seconds},
    )


def handle_stream(service: Service, rfile, wfile) -> bool:
    """Serve one client stream until EOF or ``shutdown``.

    Returns ``True`` when the client asked the whole daemon to shut
    down (only honoured by the stdio loop and the TCP server's owner).
    Always drains this stream's running jobs before returning so the
    client sees every terminal response.
    """
    writer = _LineWriter(wfile)
    pumps: list[threading.Thread] = []
    shutdown = False
    for line in rfile:
        line = line.strip()
        if not line:
            continue
        if len(line) > MAX_LINE_CHARS:
            writer.write(
                error_response(
                    "",
                    f"oversized request line ({len(line)} chars > "
                    f"{MAX_LINE_CHARS})",
                )
            )
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            writer.write(error_response("", f"not valid JSON: {error}"))
            continue
        if not isinstance(obj, dict):
            writer.write(error_response("", "envelope must be a JSON object"))
            continue
        kind = obj.get("kind")
        if kind == "shutdown":
            shutdown = True
            break
        if kind == "cancel":
            job_id = str(obj.get("id", ""))
            try:
                service.job(job_id).cancel()
            except KeyError:
                writer.write(error_response(job_id, f"no such job {job_id!r}"))
            continue
        job_id = obj.pop("id", None)
        job_id = str(job_id) if job_id is not None else None
        try:
            request = from_dict(obj)
            job = service.submit(request, job_id=job_id)
        except QueueFullError as full:
            writer.write(
                queue_full_response(
                    job_id or "",
                    full,
                    request_kind=kind if kind in REQUEST_KINDS else "",
                )
            )
            continue
        except ValueError as error:  # EnvelopeError + registry misses
            writer.write(
                error_response(
                    job_id or "",
                    str(error),
                    request_kind=kind if kind in REQUEST_KINDS else "",
                )
            )
            continue
        pump = threading.Thread(
            target=_pump, args=(job, writer), daemon=True,
            name=f"repro-serve-pump-{job.id}",
        )
        pump.start()
        pumps.append(pump)
    for pump in pumps:
        pump.join()
    return shutdown


def serve_stdio(service: Service, rfile=None, wfile=None) -> None:
    """Serve the JSON-lines protocol on stdin/stdout until EOF."""
    handle_stream(
        service,
        rfile if rfile is not None else sys.stdin,
        wfile if wfile is not None else sys.stdout,
    )


class _TCPHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover — exercised via sockets
        rfile = (line.decode("utf-8", "replace") for line in self.rfile)
        wfile = _Utf8Writer(self.wfile)
        if handle_stream(self.server.service, rfile, wfile):
            # A client-requested daemon shutdown: stop accepting.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()


class _Utf8Writer:
    def __init__(self, raw) -> None:
        self._raw = raw

    def write(self, text: str) -> None:
        self._raw.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._raw.flush()


class TCPDaemon(socketserver.ThreadingTCPServer):
    """The TCP flavour: one thread per connection, one shared service.

    ``ready`` is set on the first ``serve_forever`` poll — tests and
    harnesses that run the server on a thread wait on it instead of
    sleeping (the socket is bound and listening from construction, so
    connects queue in the backlog either way; the event removes the
    timing guesswork entirely).
    """

    allow_reuse_address = True
    daemon_threads = True
    #: Listen backlog (socketserver defaults to 5, which resets
    #: connections under a synchronized client burst — see the HTTP
    #: gateway's note; same reasoning here).
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], service: Service) -> None:
        super().__init__(address, _TCPHandler)
        self.service = service
        self.ready = threading.Event()

    def service_actions(self) -> None:  # first poll => serving
        self.ready.set()
        super().service_actions()


def create_tcp_server(
    service: Service, host: str = "127.0.0.1", port: int = 0
) -> TCPDaemon:
    """Bind a TCP daemon (``port=0`` picks a free port; see
    ``server.server_address``).  Call ``serve_forever()`` to run —
    tests run it on a thread, the CLI runs it in the foreground."""
    return TCPDaemon((host, port), service)
