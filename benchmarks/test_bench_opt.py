"""Benchmark O1: structural optimization feeding the miter encoding.

Measures what :mod:`repro.circuit.opt` buys the attack loop on the
shape it was built for: a SARLock-locked :func:`keyed_match_plane`,
whose replicated comparator fabric is full of constant-foldable taps,
BUF/NOT chains and structurally identical product terms.  Two floors
are asserted, parity first in both cases:

* ``build_miter_encoding`` under ``opt="full"`` must shrink the
  solver's combined variable+clause count by >=20% versus ``opt="off"``
  (measured headroom is ~34%).
* An end-to-end :func:`sat_attack` opt-on must recover a key the
  oracle verifies with the same DIP count as opt-off — optimization
  changes encoding size, never the attack's trajectory through the key
  space — and must do it with fewer miter clauses and fewer solver
  propagations.  Those are exact counters, so the floors hold on a
  noisy shared runner where a wall-clock ratio does not; the speedup
  is still recorded.

An exact-counter gate counts the :class:`CompiledCircuit` objects one
``optimize_compiled(..., "full")`` call builds: passes hand each other
slot arrays, so a call builds at most the one result circuit, and none
when no pass changes anything.

A corpus tier records the reduction on the genuine-format ``real_*``
circuits without enforcing a floor — file-born netlists arrive at
whatever redundancy their source had.  Each run appends trajectory
entries to ``BENCH_opt.json`` at the repository root; CI uploads the
file as an artifact so the perf history is tracked per PR.
"""

from __future__ import annotations

import time

import pytest

from repro.attacks.sat_attack import (
    build_miter_encoding,
    sat_attack,
    verify_key_against_oracle,
)
from repro.bench_circuits.corpus import corpus_names, load_corpus
from repro.bench_circuits.generators import keyed_match_plane
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.opt import optimize_compiled
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle

from benchmarks.conftest import FULL, append_trajectory

#: Carrier plane size: the FULL tier doubles the product-term count.
_PLANE = dict(terms=384, taps=8, bus=32) if FULL else dict(
    terms=192, taps=8, bus=24
)
_KEY_SIZE = 8


def _median_seconds(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def _locked_plane():
    carrier = keyed_match_plane(name="opt_plane", **_PLANE)
    return carrier, sarlock_lock(carrier, key_size=_KEY_SIZE, seed=3)


def _size(encoding) -> tuple[int, int]:
    return encoding.solver.num_vars, encoding.solver.num_clauses


def test_miter_encoding_reduction(benchmark):
    """opt="full" must shed >=20% of the miter's vars+clauses."""
    carrier, locked = _locked_plane()
    off = build_miter_encoding(locked, opt="off")
    full = build_miter_encoding(locked, opt="full")

    off_vars, off_clauses = _size(off)
    full_vars, full_clauses = _size(full)
    reduction = 1 - (full_vars + full_clauses) / (off_vars + off_clauses)

    stats = full.encode_stats()
    assert stats["opt"] == "full"
    assert stats["gates_after"] < stats["gates_before"]

    benchmark.pedantic(
        lambda: build_miter_encoding(locked, opt="full"),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["reduction"] = round(reduction, 3)
    benchmark.extra_info["off_vars"] = off_vars
    benchmark.extra_info["full_vars"] = full_vars

    append_trajectory(
        "opt",
        [
            {
                "ts": time.time(),
                "tier": "miter",
                "circuit": carrier.name,
                "gates_before": stats["gates_before"],
                "gates_after": stats["gates_after"],
                "off_vars": off_vars,
                "off_clauses": off_clauses,
                "full_vars": full_vars,
                "full_clauses": full_clauses,
                "reduction": round(reduction, 3),
            }
        ],
    )

    assert reduction >= 0.20, (
        f"opt only sheds {reduction:.1%} of vars+clauses on "
        f"{carrier.name} (floor is 20%)"
    )


def _count_builds(monkeypatch, fn):
    """Run ``fn()``; returns its result and the CompiledCircuits it built."""
    built = []
    init = CompiledCircuit.__init__
    from_slots = CompiledCircuit.from_slots

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_from_slots(cls, *args, **kwargs):
        built.append(1)
        return from_slots(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledCircuit, "__init__", counting_init)
        patch.setattr(
            CompiledCircuit, "from_slots", classmethod(counting_from_slots)
        )
        result = fn()
    return result, len(built)


#: Most CompiledCircuits one optimize_compiled call may build, per
#: circuit: the result only, and nothing when no pass changes anything
#: (no pass changes real_c432).
_BUILD_CEILINGS = {"opt_plane": 1, "real_c432": 0}


def test_optimize_builds_one_circuit(monkeypatch):
    """Exact counter: CompiledCircuits built inside optimize_compiled."""
    _, locked = _locked_plane()
    circuits = {
        "opt_plane": locked.netlist.compile(),
        "real_c432": load_corpus("real_c432").compile(),
    }
    entries = []
    for name, compiled in circuits.items():
        result, builds = _count_builds(
            monkeypatch, lambda: optimize_compiled(compiled, "full")
        )
        entries.append(
            {
                "ts": time.time(),
                "tier": "builds",
                "circuit": name,
                "gates_before": result.gates_before,
                "gates_after": result.gates_after,
                "passes": len(result.passes),
                "compiled_builds": builds,
            }
        )
    append_trajectory("opt", entries)

    for entry in entries:
        ceiling = _BUILD_CEILINGS[entry["circuit"]]
        assert entry["compiled_builds"] <= ceiling, (
            f"optimize_compiled built {entry['compiled_builds']} "
            f"CompiledCircuits on {entry['circuit']} (ceiling {ceiling})"
        )


#: Exact-counter ceilings for opt="full" over opt="off".  Measured
#: ratios: clauses 7,477/11,673 = 0.641 and propagations
#: 772,997/1,032,282 = 0.749 on the default plane; 0.616 and 0.709 on
#: the REPRO_FULL plane.  Re-pin when the encoding or the solver changes.
_CLAUSE_RATIO_CEILING = 0.65
_PROPAGATION_RATIO_CEILING = 0.75


def test_sat_attack_speedup(benchmark):
    """End-to-end: opt on must cut the attack's clauses and propagations.

    Parity comes first: both runs must finish ``ok``, agree on the DIP
    count, and recover keys the oracle verifies — only then do the
    counter ratios count.  The wall-clock speedup is recorded, not
    gated: it swings with host load (1.11x-1.87x observed).
    """
    carrier, locked = _locked_plane()

    result_off = sat_attack(locked, Oracle(carrier, opt="off"), opt="off")
    result_on = sat_attack(locked, Oracle(carrier, opt="full"), opt="full")
    assert result_off.status == "ok"
    assert result_on.status == "ok"
    assert result_on.num_dips == result_off.num_dips
    for result in (result_off, result_on):
        assert verify_key_against_oracle(
            locked, result.key, Oracle(carrier)
        )

    off_s = _median_seconds(
        lambda: sat_attack(locked, Oracle(carrier, opt="off"), opt="off")
    )
    on_s = _median_seconds(
        lambda: sat_attack(locked, Oracle(carrier, opt="full"), opt="full")
    )
    speedup = off_s / on_s
    clause_ratio = (
        result_on.encode_stats["clauses"] / result_off.encode_stats["clauses"]
    )
    propagation_ratio = (
        result_on.solver_stats["propagations"]
        / result_off.solver_stats["propagations"]
    )

    benchmark.pedantic(
        lambda: sat_attack(locked, Oracle(carrier, opt="full"), opt="full"),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["dips"] = result_on.num_dips
    benchmark.extra_info["clause_ratio"] = round(clause_ratio, 3)
    benchmark.extra_info["propagation_ratio"] = round(propagation_ratio, 3)

    append_trajectory(
        "opt",
        [
            {
                "ts": time.time(),
                "tier": "attack",
                "circuit": carrier.name,
                "key_size": _KEY_SIZE,
                "dips": result_on.num_dips,
                "off_s": round(off_s, 3),
                "on_s": round(on_s, 3),
                "speedup": round(speedup, 2),
                "clause_ratio": round(clause_ratio, 3),
                "propagation_ratio": round(propagation_ratio, 3),
                "encode": result_on.encode_stats,
            }
        ],
    )

    assert clause_ratio <= _CLAUSE_RATIO_CEILING, (
        f"opt on keeps {clause_ratio:.3f} of the miter clauses "
        f"(ceiling {_CLAUSE_RATIO_CEILING})"
    )
    assert propagation_ratio <= _PROPAGATION_RATIO_CEILING, (
        f"opt on keeps {propagation_ratio:.3f} of the solver propagations "
        f"(ceiling {_PROPAGATION_RATIO_CEILING})"
    )


def test_real_corpus_reduction_tier(benchmark):
    """Corpus tier: reduction recorded, no floor — parity still holds.

    Genuine-format circuits carry whatever redundancy their source
    files had, so the tier only tracks the numbers; every encoding
    pair is still checked for identical key interfaces.
    """
    entries = []
    for name in corpus_names():
        carrier = load_corpus(name)
        key_size = min(_KEY_SIZE, len(carrier.inputs))
        locked = sarlock_lock(carrier, key_size=key_size, seed=3)
        off = build_miter_encoding(locked, opt="off")
        full = build_miter_encoding(locked, opt="full")
        assert full.key_inputs == off.key_inputs  # same key interface
        off_vars, off_clauses = _size(off)
        full_vars, full_clauses = _size(full)
        stats = full.encode_stats()
        entries.append(
            {
                "ts": time.time(),
                "tier": "corpus",
                "circuit": name,
                "gates_before": stats["gates_before"],
                "gates_after": stats["gates_after"],
                "off_vars": off_vars,
                "off_clauses": off_clauses,
                "full_vars": full_vars,
                "full_clauses": full_clauses,
                "reduction": round(
                    1
                    - (full_vars + full_clauses)
                    / (off_vars + off_clauses),
                    3,
                ),
            }
        )
    assert entries, "corpus registry is empty"
    append_trajectory("opt", entries)

    carrier = load_corpus("real_c880")
    locked = sarlock_lock(carrier, key_size=_KEY_SIZE, seed=3)
    benchmark.pedantic(
        lambda: build_miter_encoding(locked, opt="full"),
        rounds=3,
        iterations=1,
    )
