"""Load generation against a live ``repro serve --http`` gateway.

The proof layer for the horizontal service story: replay a
configurable matrix/attack mix from N concurrent clients, honour the
gateway's explicit backpressure (503 + ``Retry-After`` -> back off and
retry), and account for every job — accepted jobs must produce exactly
one terminal response (lost and duplicated results are first-class
counters, asserted to be zero by the benchmark and CI harnesses).

Three layers:

* :class:`HttpJobClient` — a minimal stdlib HTTP client for one
  streamed job submission (chunked JSON lines decoded by
  ``http.client``).
* :func:`run_load` — N client threads round-robin over a request
  list, all released at once by a barrier; returns a
  :class:`LoadReport` with per-request records and the derived
  p50/p95 latency, throughput and cache-hit numbers that feed
  ``BENCH_service.json``.
* ``python -m repro.service.loadgen`` — the CI harness: spawns a
  ``repro serve --http`` daemon (readiness-signalled by its
  "listening on" line, never a sleep), runs the mix, asserts the
  zero-loss invariants, and writes the summary JSON + JSONL event log
  artifacts.

Usage::

    python -m repro.service.loadgen --clients 16 --schemes sarlock,xor \\
        --attacks sat,appsat --key-size 3 --scale 0.12 \\
        --summary service_load_summary.json \\
        --event-log service_load_events.jsonl
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from repro.rng import shuffled

#: Safety valve: give up on a request after this many 503 retries.
DEFAULT_MAX_RETRIES = 200

#: Cap a single backoff sleep so a harness never stalls on a huge hint.
MAX_BACKOFF_SECONDS = 0.5


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def matrix_mix(
    schemes: list[str],
    attacks: list[str],
    key_size: int = 3,
    scale: float = 0.12,
    circuit: str = "c432",
    effort: int = 1,
    seeds: tuple[int, ...] = (0,),
) -> list[dict]:
    """One single-cell matrix request per scheme x attack x seed.

    Small independent jobs — the bursty shape a gateway has to absorb —
    that all deduplicate through the shared cache on replay.
    """
    from repro.service.envelopes import SCHEMA_VERSION

    return [
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "matrix",
            "schemes": [[scheme, {"key_size": key_size}]],
            "attacks": [[attack, {}]],
            "engines": ["sharded"],
            "circuits": [circuit],
            "scale": scale,
            "efforts": [effort],
            "seeds": [seed],
        }
        for scheme in schemes
        for attack in attacks
        for seed in seeds
    ]


@dataclass
class RequestRecord:
    """Accounting for one submitted request, as the client saw it."""

    job_id: str
    status: str = ""  # terminal response status ("" = never answered)
    accepted: bool = False
    attempts: int = 0  # submissions incl. 503-rejected ones
    latency_seconds: float = 0.0  # accepted POST -> terminal response
    queued_seconds: float = 0.0  # service-side admission wait
    responses: int = 0  # terminal responses seen (must be 1)
    cells_done: int = 0
    cells_cached: int = 0
    error: str = ""

    @property
    def rejected_attempts(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class LoadReport:
    """Everything a load phase produced, plus the derived metrics."""

    records: list[RequestRecord]
    clients: int
    wall_seconds: float
    transport: str = "http"

    # ------------------------------------------------------------------
    # Correctness accounting
    # ------------------------------------------------------------------

    @property
    def accepted(self) -> list[RequestRecord]:
        return [r for r in self.records if r.accepted]

    @property
    def lost(self) -> list[RequestRecord]:
        """Accepted jobs that never produced a terminal response."""
        return [r for r in self.accepted if r.responses == 0]

    @property
    def duplicated(self) -> list[RequestRecord]:
        """Jobs that produced more than one terminal response."""
        return [r for r in self.records if r.responses > 1]

    @property
    def failed(self) -> list[RequestRecord]:
        return [
            r
            for r in self.accepted
            if r.status not in ("ok", "partial", "cancelled")
        ]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    @property
    def latencies(self) -> list[float]:
        return [r.latency_seconds for r in self.accepted if r.responses]

    @property
    def cache_hit_rate(self) -> float:
        done = sum(r.cells_done for r in self.accepted)
        cached = sum(r.cells_cached for r in self.accepted)
        return cached / done if done else 0.0

    @property
    def throughput_jobs_per_second(self) -> float:
        completed = sum(1 for r in self.accepted if r.responses)
        return completed / self.wall_seconds if self.wall_seconds else 0.0

    def summary(self) -> dict:
        """The JSON shape appended to ``BENCH_service.json``."""
        latencies = self.latencies
        return {
            "transport": self.transport,
            "clients": self.clients,
            "requests": len(self.records),
            "accepted": len(self.accepted),
            "completed": sum(1 for r in self.accepted if r.responses),
            "lost": len(self.lost),
            "duplicated": len(self.duplicated),
            "failed": len(self.failed),
            "rejected_attempts": sum(
                r.rejected_attempts for r in self.records
            ),
            "cells_done": sum(r.cells_done for r in self.accepted),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_jobs_per_s": round(
                self.throughput_jobs_per_second, 3
            ),
            "latency_p50_s": round(percentile(latencies, 50), 4),
            "latency_p95_s": round(percentile(latencies, 95), 4),
            "latency_max_s": round(max(latencies), 4) if latencies else 0.0,
            "queued_p95_s": round(
                percentile(
                    [r.queued_seconds for r in self.accepted if r.responses],
                    95,
                ),
                4,
            ),
        }


@dataclass
class HttpJobClient:
    """One streamed job submission over stdlib ``http.client``.

    ``http.client`` decodes the gateway's chunked transfer encoding
    transparently, so iterating the response yields exactly the JSON
    lines the daemon wrote.
    """

    host: str
    port: int
    timeout: float = 300.0
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Optional sink for every streamed line (the JSONL event log).
    log_line: object = None

    def submit(self, envelope: dict, job_id: str) -> RequestRecord:
        """POST one envelope, honouring 503 backpressure, and stream it."""
        record = RequestRecord(job_id=job_id)
        payload = dict(envelope)
        payload["id"] = job_id
        body = json.dumps(payload)
        while record.attempts <= self.max_retries:
            record.attempts += 1
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                conn.request(
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                if response.status == 503:
                    retry_after = self._retry_after(response)
                    response.read()
                    conn.close()
                    time.sleep(retry_after)
                    continue
                if response.status != 200:
                    record.error = (
                        f"HTTP {response.status}: "
                        f"{response.read(500).decode('utf-8', 'replace')}"
                    )
                    return record
                record.accepted = True
                start = time.perf_counter()
                self._consume_stream(response, record)
                record.latency_seconds = time.perf_counter() - start
                return record
            except OSError as error:
                record.error = f"{type(error).__name__}: {error}"
                return record
            finally:
                conn.close()
        record.error = f"gave up after {record.attempts} rejected attempts"
        return record

    def _retry_after(self, response) -> float:
        try:
            hint = float(response.getheader("Retry-After", "1"))
        except ValueError:
            hint = 1.0
        return min(max(hint, 0.05), MAX_BACKOFF_SECONDS)

    def _consume_stream(self, response, record: RequestRecord) -> None:
        for raw in response:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            if self.log_line is not None:
                self.log_line(line)
            obj = json.loads(line)
            kind = obj.get("kind")
            if kind == "event":
                data = obj.get("data", {})
                if obj.get("type") == "job_started":
                    record.queued_seconds = float(
                        data.get("queued_seconds", 0.0)
                    )
                elif obj.get("type") == "cell_done":
                    record.cells_done += 1
                    if data.get("cached"):
                        record.cells_cached += 1
            elif kind == "response":
                record.responses += 1
                record.status = str(obj.get("status", ""))
                if obj.get("error"):
                    record.error = str(obj["error"])


@dataclass
class _EventLog:
    """Thread-safe JSONL sink shared by every client."""

    path: object = None
    lines: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __call__(self, line: str) -> None:
        with self._lock:
            self.lines.append(line)

    def flush(self) -> int:
        if self.path is None:
            return len(self.lines)
        with open(self.path, "w", encoding="utf-8") as handle:
            for line in self.lines:
                handle.write(line + "\n")
        return len(self.lines)


def run_load(
    host: str,
    port: int,
    requests: list[dict],
    clients: int,
    repeat: int = 1,
    timeout: float = 300.0,
    max_retries: int = DEFAULT_MAX_RETRIES,
    job_id_prefix: str = "load",
    log_line=None,
    shuffle_seed: int | None = None,
) -> LoadReport:
    """Replay ``requests`` (x ``repeat``) from ``clients`` threads.

    The full work list — ``repeat`` copies of the request mix — is
    dealt round-robin to the client threads; a barrier releases them
    together so the gateway sees one synchronized burst per run.  Job
    ids are unique per submission (``<prefix>-c<client>-<n>``), which
    is what makes lost/duplicated accounting exact.

    ``shuffle_seed`` interleaves the work list deterministically
    (:func:`repro.rng.shuffled`), so a storm does not hand each client
    a scheme-major run of near-identical cells — same list, same seed,
    same burst shape on every run.
    """
    work = [
        dict(request)
        for _ in range(max(1, repeat))
        for request in requests
    ]
    if shuffle_seed is not None:
        work = shuffled(work, "loadgen", job_id_prefix, shuffle_seed)
    per_client: list[list[tuple[int, dict]]] = [[] for _ in range(clients)]
    for index, request in enumerate(work):
        per_client[index % clients].append((index, request))

    barrier = threading.Barrier(clients + 1)
    results: list[list[RequestRecord]] = [[] for _ in range(clients)]

    def client_main(slot: int) -> None:
        client = HttpJobClient(
            host,
            port,
            timeout=timeout,
            max_retries=max_retries,
            log_line=log_line,
        )
        barrier.wait()
        for index, request in per_client[slot]:
            job_id = f"{job_id_prefix}-c{slot}-{index}"
            results[slot].append(client.submit(request, job_id))

    threads = [
        threading.Thread(
            target=client_main, args=(slot,), name=f"loadgen-client-{slot}"
        )
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    return LoadReport(
        records=[record for bucket in results for record in bucket],
        clients=clients,
        wall_seconds=wall,
    )


def assert_no_losses(report: LoadReport) -> None:
    """The harness's correctness gate: every accepted job accounted for."""
    assert not report.lost, (
        f"{len(report.lost)} accepted job(s) never answered: "
        f"{[r.job_id for r in report.lost][:5]}"
    )
    assert not report.duplicated, (
        f"{len(report.duplicated)} job(s) answered more than once: "
        f"{[r.job_id for r in report.duplicated][:5]}"
    )
    assert not report.failed, (
        f"{len(report.failed)} job(s) failed: "
        f"{[(r.job_id, r.status, r.error) for r in report.failed][:5]}"
    )
    bad = [r for r in report.records if not r.accepted]
    assert not bad, (
        f"{len(bad)} request(s) never accepted: "
        f"{[(r.job_id, r.error) for r in bad][:5]}"
    )


# ----------------------------------------------------------------------
# CI harness: spawn a daemon, storm it, write the artifacts.
# ----------------------------------------------------------------------


def spawn_http_daemon(
    jobs: int = 4,
    cache_dir: str | None = None,
    max_pending: int | None = None,
):
    """Start ``repro serve --http 0`` as a subprocess; returns
    ``(process, host, port)`` once the daemon prints its
    readiness-signalled "listening on" line (no sleeps involved)."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    src_dir = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable, "-m", "repro", "serve", "--http", "0",
        "--jobs", str(jobs),
    ]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if max_pending is not None:
        argv += ["--max-pending", str(max_pending)]
    process = subprocess.Popen(
        argv, stderr=subprocess.PIPE, text=True, env=env
    )
    pattern = re.compile(r"listening on ([\d.]+):(\d+) \(http\)")
    while True:
        line = process.stderr.readline()
        if not line:
            raise RuntimeError(
                f"daemon exited before readiness (rc={process.poll()})"
            )
        match = pattern.search(line)
        if match:
            return process, match.group(1), int(match.group(2))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.loadgen",
        description="storm a repro serve --http daemon with a job mix",
    )
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--repeat", type=int, default=2,
                        help="replays of the mix per run (default: 2)")
    parser.add_argument("--schemes", default="sarlock,xor")
    parser.add_argument("--attacks", default="sat,appsat")
    parser.add_argument("--key-size", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.12)
    parser.add_argument("--circuit", default="c432")
    parser.add_argument("--jobs", type=int, default=4,
                        help="daemon worker budget (default: 4)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="daemon admission bound (default: 4x clients)")
    parser.add_argument("--host", default=None,
                        help="storm an already-running gateway host")
    parser.add_argument("--port", type=int, default=None,
                        help="storm an already-running gateway port")
    parser.add_argument("--summary", default="",
                        help="write the summary JSON here")
    parser.add_argument("--event-log", default="",
                        help="write every streamed line here (JSONL)")
    parser.add_argument("--shuffle-seed", type=int, default=0,
                        help="deterministic storm interleave (default: 0)")
    args = parser.parse_args(argv)

    mix = matrix_mix(
        [s for s in args.schemes.split(",") if s],
        [a for a in args.attacks.split(",") if a],
        key_size=args.key_size,
        scale=args.scale,
        circuit=args.circuit,
    )
    log = _EventLog(path=args.event_log or None)

    process = None
    if args.host is not None and args.port is not None:
        host, port = args.host, args.port
    else:
        import tempfile

        max_pending = args.max_pending or 4 * args.clients
        process, host, port = spawn_http_daemon(
            jobs=args.jobs,
            cache_dir=tempfile.mkdtemp(prefix="repro-loadgen-"),
            max_pending=max_pending,
        )
    try:
        # Warm pass: one client computes the unique cells once, so the
        # storm below measures gateway/cache behaviour, not SAT time.
        warm = run_load(
            host, port, mix, clients=1, job_id_prefix="warm", log_line=log
        )
        assert_no_losses(warm)
        storm = run_load(
            host,
            port,
            mix,
            clients=args.clients,
            repeat=args.repeat,
            job_id_prefix="storm",
            log_line=log,
            shuffle_seed=args.shuffle_seed,
        )
        assert_no_losses(storm)
        assert storm.cache_hit_rate == 1.0, (
            f"storm replayed warm cells but hit rate was "
            f"{storm.cache_hit_rate:.3f}"
        )
    finally:
        if process is not None:
            process.terminate()
            process.wait(timeout=30)

    summary = {
        "warm": warm.summary(),
        "storm": storm.summary(),
    }
    print(json.dumps(summary, indent=2))
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    written = log.flush()
    if args.event_log:
        print(f"wrote {written} streamed lines to {args.event_log}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
