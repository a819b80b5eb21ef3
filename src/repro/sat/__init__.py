"""Boolean satisfiability substrate.

A self-contained CDCL SAT solver plus the CNF plumbing the rest of the
library needs.  The paper uses MiniSAT; this package provides the same
algorithm family (two-watched-literal propagation, VSIDS decision
heuristic, phase saving, Luby restarts, first-UIP clause learning with
minimization, and LBD-driven learned-clause deletion) in pure Python so
the reproduction has no native dependencies.

Literals follow the DIMACS convention: variables are positive integers
and a negative integer denotes the negated variable.
"""

from repro.sat.cnf import CNF
from repro.sat.encode import (
    enc_and,
    enc_buf,
    enc_const,
    enc_eq,
    enc_mux,
    enc_nand,
    enc_nor,
    enc_not,
    enc_or,
    enc_xnor,
    enc_xor,
)
from repro.sat.registry import (
    SolverBackendInfo,
    SolverCapabilities,
    create_solver,
    register_solver,
    registered_solvers,
    resolve_solver_name,
    solver_info,
)
from repro.sat.solver import BudgetExhausted, Solver, SolverStats

__all__ = [
    "CNF",
    "Solver",
    "SolverStats",
    "BudgetExhausted",
    "SolverBackendInfo",
    "SolverCapabilities",
    "create_solver",
    "register_solver",
    "registered_solvers",
    "resolve_solver_name",
    "solver_info",
    "enc_and",
    "enc_or",
    "enc_nand",
    "enc_nor",
    "enc_not",
    "enc_buf",
    "enc_xor",
    "enc_xnor",
    "enc_mux",
    "enc_eq",
    "enc_const",
]
