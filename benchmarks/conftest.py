"""Benchmark configuration and shared helpers.

Default parameters are sized for a pure-Python SAT substrate: each
table regenerates in minutes, not the paper's testbed-hours.  Set
``REPRO_FULL=1`` to run closer to paper scale (expect long runtimes).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

# The one unoptimized reference, shared with the test suite.
from tests.conftest import unoptimized  # noqa: F401

FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Repository root — the ``BENCH_*.json`` trajectory files live here.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every trajectory file keeps only the most recent entries.
MAX_TRAJECTORY_ENTRIES = 200


def append_trajectory(name: str, entries: list[dict]) -> None:
    """Append ``entries`` to ``BENCH_<name>.json`` at the repo root.

    The shared tail of every benchmark: load the existing history
    (restarting the log when the file is corrupt), extend it, and
    rewrite capped at :data:`MAX_TRAJECTORY_ENTRIES`.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    history: list[dict] = []
    if path.exists():
        try:
            history = json.loads(path.read_text())["trajectory"]
        except (ValueError, KeyError):  # corrupt file: restart the log
            history = []
    history.extend(entries)
    path.write_text(
        json.dumps(
            {
                "benchmark": name,
                "trajectory": history[-MAX_TRAJECTORY_ENTRIES:],
            },
            indent=2,
        )
        + "\n"
    )

#: Carrier-circuit scale for Table 1 / Table 2 style benchmarks.
TABLE1_SCALE = 0.25 if FULL else 0.15
TABLE1_KEY_SIZES = (4, 8, 12) if FULL else (4, 8)
TABLE2_SCALE = 0.5 if FULL else 0.4
TABLE2_TIME_LIMIT = 1800.0 if FULL else 240.0


@pytest.fixture(scope="session")
def full_mode() -> bool:
    return FULL
