"""Daemon smoke tests: JSON-lines protocol over TCP and stdio.

The ``tcp_daemon`` fixture (``conftest.py``) is readiness-signalled —
it waits on the server's ``ready`` event instead of sleeping — so
these tests never race the serve loop's startup.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.service import SCHEMA_VERSION
from repro.service.daemon import handle_stream

from tests.service.conftest import matrix_request, talk

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class TestTcpDaemon:
    def test_single_job_streams_events_then_response(self, tcp_daemon):
        replies = talk(tcp_daemon.server_address, [matrix_request("j1")])
        kinds = [r["kind"] for r in replies]
        assert kinds[-1] == "response"
        events = [r for r in replies if r["kind"] == "event"]
        assert [e["type"] for e in events][0] == "job_started"
        assert [e["type"] for e in events][-1] == "job_done"
        assert sum(e["type"] == "cell_done" for e in events) == 1
        response = replies[-1]
        assert response["status"] == "ok"
        assert response["job_id"] == "j1"
        assert response["schema_version"] == SCHEMA_VERSION

    def test_lifecycle_events_carry_latency_breakdown(self, tcp_daemon):
        replies = talk(tcp_daemon.server_address, [matrix_request("lat")])
        events = {
            e["type"]: e for e in replies if e["kind"] == "event"
        }
        assert events["job_started"]["data"]["queued_seconds"] >= 0
        done = events["job_done"]["data"]
        assert done["queued_seconds"] >= 0
        assert done["run_seconds"] >= 0

    def test_two_concurrent_jobs_share_one_cache(self, tcp_daemon):
        # Warm the shared cache through one client, then two clients
        # submit the same grid concurrently: both must stream one
        # cell_done per cell — every one served from the shared cache
        # — and agree byte-for-byte on the payload (timings included,
        # because a warm replay returns the stored artifact).
        warm = talk(
            tcp_daemon.server_address, [matrix_request("warmup", seeds=(0, 1))]
        )
        assert warm[-1]["status"] == "ok"

        results: dict[str, list[dict]] = {}

        def client(job_id: str) -> None:
            results[job_id] = talk(
                tcp_daemon.server_address,
                [matrix_request(job_id, seeds=(0, 1))],
            )

        threads = [
            threading.Thread(target=client, args=(f"conc-{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=240)
        assert set(results) == {"conc-0", "conc-1"}
        payloads = {}
        for job_id, replies in results.items():
            events = [r for r in replies if r["kind"] == "event"]
            cell_events = [e for e in events if e["type"] == "cell_done"]
            assert len(cell_events) == 2, f"{job_id} streamed wrong cell count"
            assert all(e["data"]["cached"] for e in cell_events)
            assert all(e["job_id"] == job_id for e in events)
            response = replies[-1]
            assert response["kind"] == "response"
            assert response["status"] == "ok"
            payloads[job_id] = response["result"]
        assert payloads["conc-0"] == payloads["conc-1"] == warm[-1]["result"]

    def test_response_envelope_matrix_round_trips(self, tcp_daemon):
        from repro.scenarios.matrix import MatrixResult
        from repro.service import from_dict

        replies = talk(tcp_daemon.server_address, [matrix_request("rt")])
        response = from_dict(replies[-1])
        result = MatrixResult.from_payload(response.result)
        assert len(result.cells) == 1
        assert result.cells[0].status == "ok"
        assert result.format().startswith("Scenario matrix: 1 cells")

    def test_cancel_unknown_job_and_malformed_lines(self, tcp_daemon):
        replies = talk(
            tcp_daemon.server_address,
            [
                {"kind": "cancel", "id": "ghost"},
                {"schema_version": SCHEMA_VERSION, "kind": "nope"},
            ],
        )
        assert len(replies) == 2
        assert all(r["kind"] == "response" for r in replies)
        assert all(r["status"] == "error" for r in replies)
        assert "no such job" in replies[0]["error"]
        assert "unknown envelope kind" in replies[1]["error"]

    def test_invalid_request_reports_roster_error(self, tcp_daemon):
        bad = matrix_request("bad")
        bad["schemes"] = [["nope", {}]]
        replies = talk(tcp_daemon.server_address, [bad])
        [response] = replies
        assert response["status"] == "error"
        assert "unknown locking scheme" in response["error"]
        assert response["job_id"] == "bad"


class TestStdioDaemon:
    def test_response_envelope_is_an_error_line(self, service):
        """The stdio handler refuses a non-request envelope as HTTP does."""
        out = io.StringIO()
        line = {"schema_version": SCHEMA_VERSION, "kind": "response", "id": "r"}
        handle_stream(service, io.StringIO(json.dumps(line) + "\n"), out)
        [reply] = [json.loads(text) for text in out.getvalue().splitlines()]
        assert reply["kind"] == "response"
        assert reply["status"] == "error"
        assert reply["error"] == "not a request envelope: Response"
        assert reply["job_id"] == "r"
        assert service.job_count() == 0

    def test_subprocess_smoke(self, tmp_path):
        """`repro serve` over stdio: submit, stream, shut down."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "stdio-cache")
        lines = (
            json.dumps(matrix_request("stdio-1"))
            + "\n"
            + json.dumps({"kind": "shutdown"})
            + "\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            input=lines,
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        events = [r for r in replies if r["kind"] == "event"]
        assert sum(e["type"] == "cell_done" for e in events) == 1
        assert replies[-1]["kind"] == "response"
        assert replies[-1]["status"] == "ok"
