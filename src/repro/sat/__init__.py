"""Boolean satisfiability substrate.

A self-contained CDCL SAT solver, the backend registry circuits are
encoded into, and a :class:`CNF` container for random test instances.
The paper uses MiniSAT; this package provides the same algorithm family
(two-watched-literal propagation, VSIDS decision heuristic, phase
saving, Luby restarts, first-UIP clause learning with minimization,
and LBD-driven learned-clause deletion) in pure Python so the
reproduction has no native dependencies.  Gate clauses come from
:func:`repro.circuit.cnf.encode_gate`, which writes straight into any
backend.

Literals follow the DIMACS convention: variables are positive integers
and a negative integer denotes the negated variable.
"""

from repro.sat.cnf import CNF
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
]
