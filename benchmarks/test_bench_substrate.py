"""Micro-benchmarks for the substrates the attacks are built on.

Not a paper artifact — these keep the SAT solver, synthesis pipeline
and CEC honest over time (regressions here silently distort Tables 1
and 2).
"""

from repro.bench_circuits.iscas85 import iscas85_like
from repro.circuit.equivalence import check_equivalence
from repro.circuit.simulator import truth_table
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.sat.random_cnf import random_ksat
from repro.synth.optimize import synthesize


def test_solver_random_3sat(benchmark):
    """Random 3-SAT below the phase transition (satisfiable region)."""
    cnf = random_ksat(150, 600, k=3, seed=11)

    def run():
        solver = cnf.to_solver()
        return solver.solve()

    assert benchmark.pedantic(run, rounds=3, iterations=1) is True


def test_solver_pigeonhole(benchmark):
    """PHP(7,6): a small but genuinely hard UNSAT proof."""

    def build_and_solve():
        from repro.sat.solver import Solver

        s = Solver()

        def v(p, h):
            return p * 6 + h + 1

        for p in range(7):
            s.add_clause([v(p, h) for h in range(6)])
        for h in range(6):
            for p1 in range(7):
                for p2 in range(p1 + 1, 7):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        return s.solve()

    assert benchmark(build_and_solve) is False


def test_synthesis_pipeline(benchmark):
    """Pinned synthesis (the full circuit.opt pipeline) on a multiplier."""
    netlist = iscas85_like("c6288", 0.4)
    pin = {net: (i % 2 == 0) for i, net in enumerate(netlist.inputs[:6])}

    result = benchmark(lambda: synthesize(netlist, pin))
    assert result.gates_after < result.gates_before


def test_equivalence_check(benchmark):
    """CEC of a circuit against its synthesized self."""
    netlist = iscas85_like("c880", 0.4)
    optimized = synthesize(netlist).netlist

    result = benchmark(lambda: check_equivalence(netlist, optimized))
    assert result.equivalent


def test_bit_parallel_simulation(benchmark):
    """Exhaustive 2^16-pattern sweep of a scaled multiplier."""
    netlist = iscas85_like("c6288", 0.5, match_interface=False)
    assert len(netlist.inputs) == 16

    tables = benchmark(lambda: truth_table(netlist))
    assert len(tables) == len(netlist.outputs)


def test_evaluate_pattern_scratch_reuse(benchmark):
    """Per-pattern queries must stay cheap next to one batch sweep.

    ``evaluate_pattern`` is the oracle's ``query_int`` hot path.  It
    allocates its input bits and slot values per call (a shared
    circuit is evaluated from several threads, so it keeps no scratch
    on the instance); the name is historical.  The guard compares
    4096 single-pattern queries against one bit-parallel batch over
    the same patterns: parity
    exactly, and wall-clock within a bound loose enough for machine
    noise but tight enough to catch per-call setup creeping back in.
    The x30 floor is a wall-clock ratio (fastest per-pattern round
    against one timed batch), so it moves with host load.
    """
    import time as _time

    netlist = iscas85_like("c880", 0.5, match_interface=False)
    compiled = netlist.compile()
    patterns = list(range(4096))

    def per_pattern():
        return [compiled.evaluate_pattern(p) for p in patterns]

    single_results = benchmark.pedantic(per_pattern, rounds=3, iterations=1)
    start = _time.perf_counter()
    batch_results = compiled.eval_batch(patterns)
    batch_s = _time.perf_counter() - start
    assert single_results == batch_results  # parity with the batch path
    single_s = benchmark.stats.stats.min
    benchmark.extra_info["per_pattern_vs_batch"] = round(single_s / batch_s, 1)
    # Generous bound: per-pattern costs ~an order of magnitude more
    # than one 4096-lane sweep; 30x headroom catches only genuine
    # per-call allocation regressions, not machine noise.
    assert single_s <= batch_s * 30, (
        f"evaluate_pattern loop {single_s:.4f}s vs batch {batch_s:.4f}s "
        "— per-call overhead regressed"
    )


def test_single_sat_attack_iteration_cost(benchmark):
    """Full (small) SAT attack — the inner engine of every experiment."""
    original = iscas85_like("c1908", 0.3)
    locked = sarlock_lock(original, 6, seed=1)

    def run():
        return __import__(
            "repro.attacks.sat_attack", fromlist=["sat_attack"]
        ).sat_attack(locked, Oracle(original))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.status == "ok"
    assert result.num_dips == 2**6 - 1
