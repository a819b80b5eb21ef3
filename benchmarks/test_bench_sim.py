"""Benchmark S1: compiled-IR evaluation versus the legacy dict walk.

Measures patterns/sec for the two simulation paths on ISCAS-scale
circuits.  ``simulate_reference`` re-sorts the netlist and walks
string-keyed dicts per call; the compiled path evaluates the interned
slot program of :meth:`Netlist.compile`.  The asserted floor is 3x —
measured headroom is typically 4-10x — so a regression in the compiled
core fails tier-1 rather than silently eroding every attack loop.

A corpus tier tracks the genuine-format ``real_*`` circuits through
the same parity + throughput telescope.

Each run also appends trajectory entries to ``BENCH_sim.json`` at the
repository root; CI uploads the file as an artifact so the perf
history is tracked per PR.
"""

from __future__ import annotations

import time

from repro.bench_circuits.corpus import corpus_names, load_corpus
from repro.bench_circuits.iscas85 import iscas85_like
from repro.circuit.simulator import random_patterns, simulate, simulate_reference

from benchmarks.conftest import append_trajectory

#: (circuit, scale, parallel width) — the multiplier is the classic
#: simulation stress case; c5315 adds a wide-interface shape.
_CASES = (
    ("c6288", 0.5, 64),
    ("c5315", 0.3, 64),
)


def _median_seconds(fn, rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def test_compiled_vs_legacy_simulation(benchmark):
    """Compiled evaluation must be >=3x the legacy patterns/sec.

    The 3x floor is a wall-clock ratio (median seconds per sweep), so
    it moves with host load; it gates no exact work counter.
    """
    prepared = []
    for name, scale, width in _CASES:
        netlist = iscas85_like(name, scale, match_interface=False)
        stimuli = dict(
            zip(
                netlist.inputs,
                random_patterns(len(netlist.inputs), width, seed=17),
            )
        )
        netlist.compile()  # build cost paid once, outside the timers
        prepared.append((name, netlist, stimuli, width))

    entries = []
    speedups = []
    for name, netlist, stimuli, width in prepared:
        compiled_result = simulate(netlist, stimuli, width)
        legacy_result = simulate_reference(netlist, stimuli, width)
        assert compiled_result == legacy_result  # parity before speed

        legacy_s = _median_seconds(lambda: simulate_reference(netlist, stimuli, width))
        compiled_s = _median_seconds(lambda: simulate(netlist, stimuli, width))
        speedup = legacy_s / compiled_s
        speedups.append((name, speedup))
        entries.append(
            {
                "ts": time.time(),
                "circuit": name,
                "gates": netlist.num_gates,
                "width": width,
                "legacy_pps": round(width / legacy_s),
                "compiled_pps": round(width / compiled_s),
                "speedup": round(speedup, 2),
            }
        )

    # The pytest-benchmark tracked metric: one compiled sweep over the
    # multiplier (the heaviest case), with the comparison in extra_info.
    name, netlist, stimuli, width = prepared[0]
    benchmark.pedantic(
        lambda: simulate(netlist, stimuli, width), rounds=5, iterations=2
    )
    for entry in entries:
        benchmark.extra_info[f"{entry['circuit']}_speedup"] = entry["speedup"]
        benchmark.extra_info[f"{entry['circuit']}_compiled_pps"] = entry[
            "compiled_pps"
        ]

    append_trajectory("sim", entries)

    for name, speedup in speedups:
        assert speedup >= 3.0, (
            f"compiled evaluation only {speedup:.2f}x legacy on {name} "
            "(floor is 3x)"
        )


def test_real_corpus_sim_tier(benchmark):
    """Corpus tier: genuine-format circuits through the same telescope.

    The shipped ``real_*`` netlists are small, so no floor is enforced
    — the tier exists to keep parity (compiled vs legacy) and
    throughput tracked on circuits that arrived as files.
    """
    width = 256
    entries = []
    for name in corpus_names():
        netlist = load_corpus(name)
        compiled = netlist.compile()
        stimuli = dict(
            zip(
                netlist.inputs,
                random_patterns(len(netlist.inputs), width, seed=31),
            )
        )
        reference = simulate_reference(netlist, stimuli, width)
        assert simulate(netlist, stimuli, width) == reference
        words = [stimuli[net] for net in compiled.inputs]
        assert compiled.eval_outputs_wide(words, width) == [
            reference[net] for net in compiled.outputs
        ]
        compiled_s = _median_seconds(
            lambda: simulate(netlist, stimuli, width), rounds=3
        )
        entries.append(
            {
                "ts": time.time(),
                "tier": "corpus",
                "circuit": name,
                "gates": compiled.num_gates,
                "width": width,
                "compiled_pps": round(width / compiled_s),
            }
        )
    assert entries, "corpus registry is empty"
    append_trajectory("sim", entries)
    netlist = load_corpus("real_c880")
    stimuli = dict(
        zip(
            netlist.inputs,
            random_patterns(len(netlist.inputs), width, seed=31),
        )
    )
    benchmark.pedantic(
        lambda: simulate(netlist, stimuli, width), rounds=3, iterations=2
    )


def test_compile_cost_amortizes(benchmark):
    """One compile + N sweeps beats N legacy sweeps well before N=10."""
    netlist = iscas85_like("c6288", 0.5, match_interface=False)
    stimuli = dict(
        zip(netlist.inputs, random_patterns(len(netlist.inputs), 64, seed=3))
    )
    sweeps = 10

    def compiled_batch():
        netlist.invalidate_compiled()  # pay compilation inside the timer
        for _ in range(sweeps):
            simulate(netlist, stimuli, 64)

    legacy_s = _median_seconds(
        lambda: [simulate_reference(netlist, stimuli, 64) for _ in range(sweeps)]
    )
    benchmark.pedantic(compiled_batch, rounds=3, iterations=1)
    compiled_s = benchmark.stats.stats.mean
    benchmark.extra_info["legacy_s"] = round(legacy_s, 5)
    benchmark.extra_info["sweeps"] = sweeps
    assert compiled_s < legacy_s, (
        f"compile+{sweeps} sweeps ({compiled_s:.4f}s) should beat "
        f"{sweeps} legacy sweeps ({legacy_s:.4f}s)"
    )
