"""Benchmark S2: the HTTP gateway under a concurrent client storm.

The horizontal-scale proof: an in-process ``repro serve --http``
gateway over one shared result cache takes a synchronized burst from
64 concurrent clients (more under ``REPRO_FULL=1``).  Correctness is
asserted before any number is recorded — every accepted job must
produce exactly one terminal response (zero lost, zero duplicated,
zero failed), and because a single warm pass precomputed every unique
cell, the storm must be served entirely from the shared cache.

Admission control is deliberately set *below* the client count, so the
storm also exercises the 503/``Retry-After`` backpressure path at
scale: refused clients back off and retry, and the accounting proves
no request was dropped on the floor in the process.

Each run appends one entry — p50/p95 latency, throughput, cache-hit
rate, rejected-attempt count — to ``BENCH_service.json`` at the repo
root; the CI ``service-load`` job uploads it next to the subprocess
harness's summary.
"""

from __future__ import annotations

import time

from repro.runner import ResultCache
from repro.service import Service
from repro.service.http import create_http_server
from repro.service.loadgen import assert_no_losses, matrix_mix, run_load

from benchmarks.conftest import FULL, append_trajectory

_CLIENTS = 96 if FULL else 64
_SCHEMES = ["sarlock", "xor"]
_ATTACKS = ["sat", "appsat"]
_KEY_SIZE = 4 if FULL else 3
_SCALE = 0.15 if FULL else 0.12
#: Deliberately below the client count: the storm must survive real
#: backpressure, not just an open door.
_MAX_PENDING = _CLIENTS // 4


def test_gateway_sustains_concurrent_storm(benchmark, tmp_path):
    """64+ clients, one gateway, zero lost results, all cache hits."""
    service = Service(
        jobs=4,
        cache=ResultCache(tmp_path / "cache"),
        max_pending=_MAX_PENDING,
    )
    server = create_http_server(service, port=0)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.ready.wait(10), "gateway never reached its serve loop"
    host, port = server.server_address[:2]

    mix = matrix_mix(
        _SCHEMES, _ATTACKS, key_size=_KEY_SIZE, scale=_SCALE
    )
    repeat = max(1, _CLIENTS // len(mix))  # one job per client

    try:
        # Warm pass: a single client computes each unique cell once.
        warm = run_load(host, port, mix, clients=1, job_id_prefix="warm")
        assert_no_losses(warm)
        assert len(warm.accepted) == len(mix)

        # The storm: every client replays warm cells simultaneously.
        storm_holder: dict = {}

        def storm_once() -> None:
            storm_holder["report"] = run_load(
                host,
                port,
                mix,
                clients=_CLIENTS,
                repeat=repeat,
                job_id_prefix="storm",
            )

        benchmark.pedantic(storm_once, rounds=1, iterations=1)
        storm = storm_holder["report"]

        # Correctness first: exact accounting for every request.
        assert_no_losses(storm)
        assert len(storm.records) == len(mix) * repeat
        assert storm.cache_hit_rate == 1.0, (
            f"storm replayed warm cells but hit rate was "
            f"{storm.cache_hit_rate:.3f}"
        )
        # The gateway's own books agree: nothing in flight, nothing leaked.
        assert service.active_count() == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)

    summary = storm.summary()
    benchmark.extra_info.update(summary)
    append_trajectory(
        "service",
        [
            {
                "ts": time.time(),
                "full": FULL,
                "schemes": _SCHEMES,
                "attacks": _ATTACKS,
                "key_size": _KEY_SIZE,
                "scale": _SCALE,
                "max_pending": _MAX_PENDING,
                "warm_wall_s": round(warm.wall_seconds, 4),
                **summary,
            }
        ],
    )
