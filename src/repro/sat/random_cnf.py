"""Seeded random CNF generation for testing and fuzzing the solver."""

from __future__ import annotations

import itertools
import random

from repro.sat.cnf import CNF


def random_ksat(
    num_vars: int, num_clauses: int, k: int = 3, seed: int = 0
) -> CNF:
    """Generate a uniform random k-SAT instance.

    Each clause draws ``k`` distinct variables and flips each polarity
    with probability 1/2.  Deterministic for a given seed.
    """
    if num_vars < k:
        raise ValueError("need at least k variables")
    rng = random.Random(seed)
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), k)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        cnf.add_clause(clause)
    return cnf


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Decide satisfiability by enumeration (only for tiny instances)."""
    if cnf.num_vars > 22:
        raise ValueError("brute force limited to 22 variables")
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if cnf.is_satisfied_by(assignment):
            return True
    return False

