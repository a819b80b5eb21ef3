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
python backend's counters are gated against ``_PINNED``, the values
pinned here for each workload shape (the default one and
``REPRO_FULL=1``'s): a pure speed change must leave them identical, so
a mismatch fails the run, on a fresh checkout too.  A change that
moves them on purpose (an encoding or search change) re-pins them in
the same commit.  Entries are stamped with the per-DIP copy encoding
they ran on (``dip_encoding``).  The python entry also
records ``order_pops``, the ``heapq.heappop`` calls the solver's
decision order makes during the single-key attack, gated at
``_MAX_POPS_PER_DECISION`` per decision: decisions come from a sorted
run, and only variables bumped since its last sort go through the heap.

A second gate keeps SARLock's per-DIP cost flat on the Table 1 carrier:
propagations per DIP at the larger key size must stay within
``_MAX_PER_DIP_GROWTH`` of those at k=8, so the attack's total work
grows with the DIP count, not with its square.
"""

from __future__ import annotations

import heapq
import time

from repro.attacks.sat_attack import sat_attack
from repro.bench_circuits.corpus import resolve_circuit
from repro.bench_circuits.iscas85 import iscas85_like
from repro.core.multikey import multikey_attack
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.sat import registered_solvers, solver_info
from repro.sat import solver as solver_module

from benchmarks.conftest import FULL, append_trajectory

_CIRCUIT = "c1908"
_SCALE = 0.4 if FULL else 0.25
_KEY_SIZE = 6 if FULL else 5
_EFFORT = 3 if FULL else 2

#: The per-DIP copy encoding the counters come from: PO clauses
#: crunched over lazy AND copy gates (see ``MiterEncoding``).
_DIP_ENCODING = "crunched"
#: Entry fields that fix the workload, and the exact counters gated on.
_SHAPE = ("circuit", "scale", "key_size", "gates", "dip_encoding")
_EXACT = (
    "dips", "decisions", "conflicts", "propagations",
    "encode_vars", "encode_clauses",
)
#: The python backend's exact counters, per workload shape.
_PINNED = {
    ("c1908", 0.25, 5, 63, "crunched"): (31, 427, 59, 3_637, 96, 247),
    ("c1908", 0.4, 6, 104, "crunched"): (63, 1_170, 102, 10_160, 140, 371),
}
#: Order-work gate: heap pops per decision of the python backend.
_MAX_POPS_PER_DECISION = 2
#: Per-DIP gate: the Table 1 carrier, and its key sizes compared to k=8.
_TABLE1_CARRIER = ("c7552", 0.25)
_PER_DIP_KEY_SIZES = (10, 12) if FULL else (10,)
_MAX_PER_DIP_GROWTH = 1.5


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
                "dip_encoding": _DIP_ENCODING,
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
    shape = tuple(python[field] for field in _SHAPE)
    assert shape in _PINNED, f"no pinned counters for workload shape {shape}"
    assert {field: python[field] for field in _EXACT} == dict(
        zip(_EXACT, _PINNED[shape])
    ), "python backend's exact counters moved from their pinned values"

    append_trajectory("solver", entries)


def _propagations_per_dip(original, key_size: int) -> float:
    locked = sarlock_lock(original, key_size, seed=0)
    result = sat_attack(
        locked, Oracle(original), solver="python", record_iterations=False
    )
    assert result.succeeded
    assert result.num_dips == 2**key_size - 1
    return result.solver_stats["propagations"] / result.num_dips


def test_sarlock_per_dip_cost_stays_flat():
    """Each SARLock DIP costs about what the first ones did: the DIP
    constraints already added must not slow every later solve."""
    original = resolve_circuit(*_TABLE1_CARRIER)
    base = _propagations_per_dip(original, 8)
    for key_size in _PER_DIP_KEY_SIZES:
        per_dip = _propagations_per_dip(original, key_size)
        assert per_dip <= _MAX_PER_DIP_GROWTH * base, (
            f"k={key_size}: {per_dip:.0f} propagations per DIP, "
            f"k=8: {base:.0f}"
        )
