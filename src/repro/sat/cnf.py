"""A CNF formula container with a variable allocator.

:class:`CNF` holds random instances (:mod:`repro.sat.random_cnf`) for
solver tests and benchmarks, and lets a test read back the clauses a
gate encoder wrote.  Circuits are not handed off through it: they are
encoded straight into a solver (:mod:`repro.circuit.cnf`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.sat.solver import Solver


class CNF:
    """Clause list over DIMACS-style integer literals.

    The allocator hands out fresh variables via :meth:`new_var`;
    clauses added through :meth:`add_clause` may also grow the variable
    count implicitly when they mention larger variable indices.
    """

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append one clause; grows ``num_vars`` if needed."""
        clause = list(lits)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)

    def add_clauses(self, clause_iter: Iterable[Iterable[int]]) -> None:
        for clause in clause_iter:
            self.add_clause(clause)

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (no variable renumbering)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        self.clauses.extend(list(c) for c in other.clauses)

    def copy(self) -> "CNF":
        dup = CNF(self.num_vars)
        dup.clauses = [list(c) for c in self.clauses]
        return dup

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return f"CNF(vars={self.num_vars}, clauses={len(self.clauses)})"

    # ------------------------------------------------------------------
    # Solving helpers
    # ------------------------------------------------------------------
    def to_solver(self) -> Solver:
        """Build a fresh solver loaded with this formula."""
        solver = Solver()
        solver._ensure_var(self.num_vars)
        for clause in self.clauses:
            solver.add_clause(clause)
        return solver

    def solve(self, assumptions: Iterable[int] = ()) -> list[int] | None:
        """One-shot solve; returns a model (DIMACS lits) or ``None``."""
        solver = self.to_solver()
        if not solver.solve(assumptions=list(assumptions)):
            return None
        return solver.model()

    def is_satisfied_by(self, assignment: dict[int, bool]) -> bool:
        """Check a full assignment (var -> bool) against every clause."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True
