"""Unit tests for the CDCL solver."""

import pytest

from repro.sat.solver import BudgetExhausted, Solver, luby


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_powers_appear(self):
        values = {luby(i) for i in range(1023)}
        assert {1, 2, 4, 8, 16, 32, 64, 128, 256} <= values

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            luby(-1)


class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        assert Solver().solve()

    def test_single_unit(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve()
        assert s.model_value(1) is True

    def test_negative_unit(self):
        s = Solver()
        s.add_clause([-1])
        assert s.solve()
        assert s.model_value(1) is False

    def test_contradictory_units(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve()

    def test_empty_clause_unsat(self):
        s = Solver()
        assert not s.add_clause([])
        assert not s.solve()

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])

    def test_tautology_ignored(self):
        s = Solver()
        s.add_clause([1, -1])
        assert s.solve()

    def test_duplicate_literals_collapse(self):
        s = Solver()
        s.add_clause([2, 2, 2])
        assert s.solve()
        assert s.model_value(2) is True

    def test_implication_chain(self):
        s = Solver()
        n = 50
        s.add_clause([1])
        for v in range(1, n):
            s.add_clause([-v, v + 1])
        assert s.solve()
        for v in range(1, n + 1):
            assert s.model_value(v) is True

    def test_simple_unsat(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([1, -2])
        s.add_clause([-1, 2])
        s.add_clause([-1, -2])
        assert not s.solve()

    def test_pigeonhole_3_into_2(self):
        # PHP(3,2): famous small UNSAT instance requiring real search.
        s = Solver()
        # var(p, h) for pigeon p in hole h
        def v(p, h):
            return p * 2 + h + 1

        for p in range(3):
            s.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        assert not s.solve()

    def test_xor_chain_sat(self):
        # x1 ^ x2 ^ x3 = 1 encoded as CNF is satisfiable.
        s = Solver()
        s.add_clause([1, 2, 3])
        s.add_clause([1, -2, -3])
        s.add_clause([-1, 2, -3])
        s.add_clause([-1, -2, 3])
        assert s.solve()
        parity = sum(int(s.model_value(v)) for v in (1, 2, 3)) % 2
        assert parity == 1


class TestModel:
    def test_model_satisfies_all_clauses(self):
        from repro.sat.random_cnf import random_ksat

        cnf = random_ksat(40, 130, seed=5)
        solver = cnf.to_solver()
        assert solver.solve()
        assignment = {abs(l): l > 0 for l in solver.model()}
        assert cnf.is_satisfied_by(assignment)

    def test_model_value_out_of_range(self):
        s = Solver()
        s.add_clause([1])
        s.solve()
        assert s.model_value(0) is None
        assert s.model_value(99) is None

    def test_model_survives_until_next_call(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve()
        first = (s.model_value(1), s.model_value(2))
        assert True in first


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1])
        assert s.model_value(1) is False
        assert s.model_value(2) is True

    def test_conflicting_assumption_unsat_without_poisoning(self):
        s = Solver()
        s.add_clause([1])
        assert not s.solve(assumptions=[-1])
        assert s.solve()  # still SAT without the assumption
        assert s.solve(assumptions=[1])

    def test_mutually_conflicting_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert not s.solve(assumptions=[1, -1])

    def test_assumptions_drive_unsat_core_region(self):
        s = Solver()
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert not s.solve(assumptions=[1, -3])
        assert s.solve(assumptions=[1, 3])

    def test_zero_assumption_rejected_before_any_state_change(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve()  # leaves a model above level 0
        before = (s.stats.as_dict(), s.num_vars, list(s._trail), list(s._trail_lim))
        with pytest.raises(ValueError, match="0 is not a valid DIMACS literal"):
            s.solve(assumptions=[5, 0])
        assert (s.stats.as_dict(), s.num_vars, s._trail, s._trail_lim) == before
        assert s.solve(assumptions=[-1])

    def test_many_assumptions(self):
        s = Solver()
        for v in range(1, 21):
            s.add_clause([v, v + 100])
        assumptions = [-v for v in range(1, 21)]
        assert s.solve(assumptions=assumptions)
        for v in range(1, 21):
            assert s.model_value(v) is False
            assert s.model_value(v + 100) is True


class TestIncremental:
    def test_add_after_solve(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve()
        s.add_clause([-1])
        assert s.solve()
        assert s.model_value(2) is True

    def test_progressive_tightening_to_unsat(self):
        s = Solver()
        s.add_clause([1, 2, 3])
        assert s.solve()
        s.add_clause([-1])
        assert s.solve()
        s.add_clause([-2])
        assert s.solve()
        s.add_clause([-3])
        assert not s.solve()

    def test_unsat_is_sticky(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve()
        s.add_clause([2])
        assert not s.solve()

    def test_new_vars_between_solves(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve()
        s.add_clause([500, -1])
        assert s.solve()
        assert s.model_value(500) is True

    def test_solver_reuse_many_rounds(self):
        from repro.sat.random_cnf import random_ksat

        s = Solver()
        offset = 0
        for round_no in range(5):
            cnf = random_ksat(15, 40, seed=round_no)
            for clause in cnf.clauses:
                s.add_clause(
                    [lit + offset if lit > 0 else lit - offset for lit in clause]
                )
            assert s.solve()
            offset += 15


class TestBudget:
    def test_budget_exhausted_raises(self):
        # PHP(6,5) is hard enough to exceed a 5-conflict budget.
        s = Solver()

        def v(p, h):
            return p * 5 + h + 1

        for p in range(6):
            s.add_clause([v(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=5)

    def test_budget_leaves_solver_usable(self):
        s = Solver()

        def v(p, h):
            return p * 5 + h + 1

        for p in range(6):
            s.add_clause([v(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        try:
            s.solve(conflict_budget=5)
        except BudgetExhausted:
            pass
        assert not s.solve()  # full solve still reaches the right answer


class TestStats:
    def test_counters_move(self):
        from repro.sat.random_cnf import random_ksat

        solver = random_ksat(60, 250, seed=3).to_solver()
        solver.solve()
        stats = solver.stats
        assert stats.solve_calls == 1
        assert stats.propagations > 0
        assert stats.decisions > 0

    def test_as_dict_keys(self):
        s = Solver()
        s.add_clause([1])
        s.solve()
        d = s.stats.as_dict()
        assert {"conflicts", "decisions", "propagations", "restarts"} <= set(d)


class TestCheckpointRollback:
    def test_rollback_removes_frame_clauses(self):
        s = Solver()
        s.add_clause([1, 2])
        mark = s.checkpoint()
        s.add_clause([3, 4])
        s.add_clause([-1])  # root unit inside the frame survives (var 1 <= mark)
        assert s.num_vars == 4
        s.rollback(mark)
        assert s.num_vars == 2
        assert s.num_clauses == 1
        assert s.solve()
        # The frame's unit on a surviving variable is kept.
        assert s.model_value(1) is False
        assert s.model_value(2) is True

    def test_rollback_drops_learnts_on_dropped_vars(self):
        from repro.sat.random_cnf import random_ksat

        solver = random_ksat(40, 170, seed=2).to_solver()
        # Learn about the base formula first, so surviving learnts exist.
        solver.solve()
        base_learnts = len(solver._learnts)
        assert base_learnts > 0
        mark = solver.checkpoint()
        guard = solver.new_var()
        # Force unsatisfiability under the guard, then learn about it.
        for var in range(1, 6):
            solver.add_clause([-guard, var])
            solver.add_clause([-guard, -var])
        assert not solver.solve(assumptions=[guard])
        solver.rollback(mark)
        assert solver.num_vars == 40
        # Clauses over base variables survive; none mention the guard.
        # (clause.lits holds internal literals: the variable is lit >> 1.)
        assert solver._learnts
        for clause in solver._learnts:
            assert all(lit >> 1 <= 40 for lit in clause.lits)
        # The base formula's satisfiability is untouched.
        assert solver.solve() == random_ksat(40, 170, seed=2).to_solver().solve()

    def test_rollback_is_repeatable_per_frame(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1, 2])
        for _ in range(5):
            mark = s.checkpoint()
            g = s.new_var()
            s.add_clause([-g, -2])
            assert not s.solve(assumptions=[g])
            assert s.solve()
            s.rollback(mark)
        assert s.num_vars == 2
        assert s.solve()
        assert s.model_value(2) is True

    def test_future_mark_rejected(self):
        s = Solver()
        mark = s.checkpoint()
        with pytest.raises(ValueError):
            s.rollback((mark[0] + 1, mark[1], mark[2]))

    def test_inner_rollback_keeps_an_equal_outer_frame_open(self):
        """Nested frames opened back to back have equal counts; closing
        the inner one must leave the outer one open, or simplify()
        compacts the clause list under the outer mark and its rollback
        keeps a clause over a dropped variable."""
        s = Solver()
        for _ in range(3):
            s.new_var()
        s.add_clause([2, 3])
        s.add_clause([2])
        outer = s.checkpoint()
        inner = s.checkpoint()
        s.rollback(inner)
        s.add_clause([1, 3, -4])
        s.simplify()
        s.rollback(outer)
        assert s.num_vars == 3
        assert s.solve([-1, -3])
        assert s.model() == [-1, 2, -3]


class TestSimplifyInFrames:
    """Frame-safe simplify: shed in place, compact when frame-free."""

    def test_in_frame_simplify_holds_clause_indices(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        mark = s.checkpoint()
        g = s.new_var()
        s.add_clause([-g, 2])
        s.add_clause([1])  # root unit: satisfies [1,2], strips [-1,3]
        stored = len(s._clauses)
        assert s.simplify()
        # The checkpoint mark snapshots the clause-list length, so an
        # in-frame simplify may only flag, never compact.
        assert len(s._clauses) == stored
        assert any(clause.deleted for clause in s._clauses)
        # The guarded clause still works under its assumption.
        assert s.solve(assumptions=[g])
        assert s.model_value(2) is True
        s.rollback(mark)
        assert s.solve()
        assert s.model_value(1) is True
        assert s.model_value(3) is True

    def test_frame_free_simplify_compacts(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        s.add_clause([1])
        before = len(s._clauses)
        assert s.simplify()
        assert len(s._clauses) < before  # satisfied clauses really gone
        assert all(not clause.deleted for clause in s._clauses)
        assert s.solve()
        assert s.model_value(3) is True

    def test_flagged_clauses_compact_after_rollback(self):
        s = Solver()
        s.add_clause([1, 2])
        mark = s.checkpoint()
        s.add_clause([1])
        assert s.simplify()  # flags [1,2] in place
        s.rollback(mark)
        assert s.simplify()  # frame-free: compacts the flagged clause
        assert all(not clause.deleted for clause in s._clauses)
        assert s.solve()
        assert s.model_value(1) is True

    def test_rollback_rebases_the_simplify_mark(self):
        """A root fact that rollback drops must not let the next one
        pass for a fact the last full pass already shed."""
        s = Solver()
        s.add_clause([1, 2])
        mark = s.checkpoint()
        s.add_clause([s.new_var()])  # root fact on a frame variable
        assert s.simplify()
        s.rollback(mark)
        s.add_clause([1])  # the root trail is as long as at that pass
        assert s.simplify()
        assert s._clauses == []  # [1, 2] is satisfied and compacted

    def test_repeated_shard_style_frames_stay_sound(self):
        """The ShardEngine access pattern: frame, guard, simplify, roll."""
        from repro.sat.random_cnf import random_ksat

        cnf = random_ksat(30, 120, seed=6)
        solver = cnf.to_solver()
        baseline = solver.solve()
        for round_ in range(4):
            mark = solver.checkpoint()
            guard = solver.new_var()
            assert solver.simplify()
            solver.add_clause([-guard, 1 if round_ % 2 else -1])
            solver.solve(assumptions=[guard])
            solver.rollback(mark)
        assert solver.simplify()
        assert solver.solve() == baseline


class TestClauseExchange:
    def test_export_import_roundtrip(self):
        from repro.sat.random_cnf import random_ksat

        cnf = random_ksat(50, 210, seed=5)
        donor = cnf.to_solver()
        donor.solve()
        exported = donor.export_learnts()
        receiver = cnf.to_solver()
        imported = receiver.import_learnts(exported)
        assert imported == len(exported)
        assert receiver.solve() == donor.solve()

    def test_export_respects_max_var(self):
        from repro.sat.random_cnf import random_ksat

        solver = random_ksat(30, 120, seed=9).to_solver()
        solver.solve()
        for clause in solver.export_learnts(max_var=10):
            assert all(abs(lit) <= 10 for lit in clause)

    def test_export_respects_max_lbd(self):
        from repro.sat.random_cnf import random_ksat

        solver = random_ksat(40, 170, seed=2).to_solver()
        solver.solve()
        capped = solver.export_learnts(max_lbd=2)
        assert len(capped) <= len(solver.export_learnts())

    def test_import_drops_tautology_and_satisfied(self):
        s = Solver()
        s.add_clause([1])
        assert s.import_learnts([[2, -2], [1, 3]]) == 0
        assert s.solve()

    def test_imported_clauses_participate(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.import_learnts([[-1], [-2, 3]]) == 2
        assert s.solve()
        assert s.model_value(1) is False
        assert s.model_value(2) is True
        assert s.model_value(3) is True
