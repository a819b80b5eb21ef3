"""The python solver's search, pinned counter for counter.

A change that only makes the search cheaper must leave every decision,
conflict and propagation where it was.  These cases pin the solver
counters (plus DIPs and key for the attacks) on workloads that between
them restart, reduce the learnt database, reduce it again before the
next conflict, and carry assumptions across many calls.
"""

import random

import pytest

from repro.attacks.sat_attack import sat_attack
from repro.bench_circuits.corpus import resolve_circuit
from repro.locking import registry
from repro.locking.lut_lock import LutModuleSpec
from repro.oracle.oracle import Oracle
from repro.sat.random_cnf import random_ksat

#: The counters pinned, in the order the golden tuples list them.
_COUNTERS = (
    "propagations", "conflicts", "decisions", "restarts", "removed",
    "max_decision_level",
)


def _counters(stats: dict) -> tuple[int, ...]:
    return tuple(stats[name] for name in _COUNTERS)


_ATTACKS = {
    # SARLock k=8 on the shipped c880: one DIP per wrong key, 3 restarts.
    "sarlock_real_c880": (
        ("real_c880", 1.0, "sarlock", {"key_size": 8}),
        (255, 0, (167046, 755, 17159, 3, 0, 77)),
    ),
    # The paper-scale LUT lock on the c1908 stand-in: few DIPs, deep trails.
    "lut_c1908": (
        ("c1908", 0.4, "lut", {"spec": LutModuleSpec.paper_scale()}),
        (
            96,
            730761969174163671181788574324994159919791236726,
            (78001, 492, 21089, 0, 0, 461),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_ATTACKS))
def test_sat_attack_replays_its_search(case):
    (circuit, scale, scheme, params), expected = _ATTACKS[case]
    original = resolve_circuit(circuit, scale)
    locked = registry.lock_circuit(scheme, original, **params, seed=1)
    result = sat_attack(locked, Oracle(original))
    assert result.succeeded
    got = (result.num_dips, result.key_int, _counters(result.solver_stats))
    assert got == expected


def test_random_ksat_restarts_and_reduces():
    solver = random_ksat(180, 766, seed=0).to_solver()
    assert solver.solve()
    assert _counters(solver.stats.as_dict()) == (77890, 2198, 2796, 11, 1064, 29)


def test_reduce_due_again_before_the_next_conflict():
    """LBD-2 imports are never reduced, so right after a reduce the
    database can still be over its new cap at the next fixpoints; the
    reduce then runs again there, before any further conflict."""
    solver = random_ksat(150, 630, seed=5).to_solver()
    equivalences = []
    for var in range(151, 751, 2):
        equivalences += [[-var, var + 1], [var, -(var + 1)]]
    solver.add_clauses(equivalences)
    solver.import_learnts(equivalences + equivalences)
    assert solver.solve()
    assert _counters(solver.stats.as_dict()) == (12545, 367, 806, 2, 173, 326)


_VERDICTS = "SUUUSSSUSSUSSUUSSSUUSSUSSSSSSUSSUSUSSUUS"


def test_assumption_sequence_replays():
    """Forty incremental calls under random assumptions, with clauses
    added between them: verdicts and cumulative counters."""
    rng = random.Random(7)
    solver = random_ksat(120, 470, seed=11).to_solver()
    verdicts = []
    for call in range(40):
        assumptions = [
            rng.choice((1, -1)) * rng.randint(1, 120)
            for _ in range(rng.randint(0, 6))
        ]
        verdicts.append(solver.solve(assumptions=assumptions))
        if call % 5 == 4:
            solver.add_clause(
                [rng.choice((1, -1)) * rng.randint(1, 120) for _ in range(3)]
            )
    assert "".join("S" if v else "U" for v in verdicts) == _VERDICTS
    stats = solver.stats.as_dict()
    assert _counters(stats) == (126542, 4510, 5701, 18, 3542, 25)
    assert stats["solve_calls"] == 40
