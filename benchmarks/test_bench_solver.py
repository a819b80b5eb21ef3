"""Benchmark S1: the SAT attack across every registered solver backend.

One workload, every backend: a SARLock-locked ISCAS-class carrier run
through the single-key SAT attack and (for backends with checkpoint
frames) the sharded multi-key engine.  Parity is asserted before any
timing is recorded — every backend must recover the same key and, on
SARLock, the same scheme-determined DIP count — so the trajectory only
ever compares *equivalent* runs.

Each run appends one entry per backend to ``BENCH_solver.json`` at the
repository root; the optional-deps CI job installs ``python-sat`` and
re-runs this file, so the trajectory records the PySAT backend's
numbers whenever the wheel is available.  Besides wall times, every
entry records the single-key attack's exact counters (decisions,
conflicts, propagations, and the miter's encoded variables/clauses):
deterministic for a given backend and code, so a trajectory can gate
on them instead of on noisy wall-clock ratios.  Before appending, the
python backend's counters are gated against the last recorded python
entry of the same workload shape: a pure speed change must leave them
identical, so a mismatch fails the run.  The python entry also
records ``order_pops``, the ``heapq.heappop`` calls the solver's
decision order makes during the single-key attack, gated at
``_MAX_POPS_PER_DECISION`` per decision: decisions come from a sorted
run, and only variables bumped since its last sort go through the heap.
"""

from __future__ import annotations

import heapq
import json
import time

from repro.attacks.sat_attack import sat_attack
from repro.bench_circuits.iscas85 import iscas85_like
from repro.core.multikey import multikey_attack
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.sat import registered_solvers, solver_info
from repro.sat import solver as solver_module

from benchmarks.conftest import FULL, REPO_ROOT, append_trajectory

_CIRCUIT = "c1908"
_SCALE = 0.4 if FULL else 0.25
_KEY_SIZE = 6 if FULL else 5
_EFFORT = 3 if FULL else 2

#: Entry fields that fix the workload, and the exact counters gated on.
_SHAPE = ("circuit", "scale", "key_size", "gates")
_EXACT = (
    "dips", "decisions", "conflicts", "propagations",
    "encode_vars", "encode_clauses",
)
#: Order-work gate: heap pops per decision of the python backend.
_MAX_POPS_PER_DECISION = 2


class _PopCounter:
    """Stands in for ``heapq`` inside :mod:`repro.sat.solver`."""

    heappush = staticmethod(heapq.heappush)
    heapify = staticmethod(heapq.heapify)

    def __init__(self) -> None:
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def _order_pops(locked, original, monkeypatch) -> int:
    """``heapq.heappop`` calls the python solver makes in one attack."""
    counter = _PopCounter()
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "heapq", counter)
        sat_attack(locked, Oracle(original), solver="python")
    return counter.pops


def _last_recorded(entry: dict) -> dict | None:
    """The last python entry of ``entry``'s shape in ``BENCH_solver.json``."""
    try:
        history = json.loads((REPO_ROOT / "BENCH_solver.json").read_text())[
            "trajectory"
        ]
    except (OSError, ValueError, KeyError):
        return None
    for old in reversed(history):
        if old.get("backend") == "python" and all(
            old.get(field) == entry[field] for field in _SHAPE
        ):
            return old
    return None


def test_solver_backends(benchmark, monkeypatch):
    """Every registered backend: identical verdicts, tracked runtimes."""
    original = iscas85_like(_CIRCUIT, _SCALE)
    locked = sarlock_lock(original, _KEY_SIZE, seed=1)
    expected_dips = 2**_KEY_SIZE - 1  # SARLock: one DIP per wrong key

    entries = []
    for name in registered_solvers():
        info = solver_info(name)

        start = time.perf_counter()
        single = sat_attack(locked, Oracle(original), solver=name)
        single_seconds = time.perf_counter() - start
        assert single.succeeded, f"{name}: single-key attack failed"
        assert single.key_int == locked.correct_key_int, (
            f"{name}: recovered key diverges from the python backend's"
        )
        assert single.num_dips == expected_dips

        multi_seconds = None
        if info.supports_sharding:
            start = time.perf_counter()
            multi = multikey_attack(
                locked, original, effort=_EFFORT, engine="sharded",
                solver=name,
            )
            multi_seconds = time.perf_counter() - start
            assert multi.status == "ok", f"{name}: sharded attack failed"
            assert multi.engine == "sharded"
            assert multi.solver == name

        entries.append(
            {
                "ts": time.time(),
                "backend": name,
                "circuit": _CIRCUIT,
                "scale": _SCALE,
                "key_size": _KEY_SIZE,
                "gates": locked.netlist.num_gates,
                "dips": single.num_dips,
                "decisions": single.solver_stats.get("decisions"),
                "conflicts": single.solver_stats.get("conflicts"),
                "propagations": single.solver_stats.get("propagations"),
                "encode_vars": single.encode_stats["vars"],
                "encode_clauses": single.encode_stats["clauses"],
                "single_key_s": round(single_seconds, 4),
                "sharded_s": (
                    round(multi_seconds, 4)
                    if multi_seconds is not None
                    else None
                ),
                "capabilities": info.capabilities.as_dict(),
            }
        )

    # The pytest-benchmark tracked metric: the default backend's
    # single-key attack, with every backend's numbers in extra_info.
    benchmark.pedantic(
        lambda: sat_attack(locked, Oracle(original)),
        rounds=2,
        iterations=1,
    )
    for entry in entries:
        benchmark.extra_info[f"{entry['backend']}_single_key_s"] = entry[
            "single_key_s"
        ]

    python = next(entry for entry in entries if entry["backend"] == "python")
    python["order_pops"] = _order_pops(locked, original, monkeypatch)
    assert python["order_pops"] <= _MAX_POPS_PER_DECISION * python["decisions"], (
        f"{python['order_pops']} order-heap pops for {python['decisions']} decisions"
    )
    previous = _last_recorded(python)
    if previous is not None:
        assert {field: python[field] for field in _EXACT} == {
            field: previous[field] for field in _EXACT
        }, "python backend's exact counters moved since the last recorded entry"

    append_trajectory("solver", entries)
