"""Backend conformance suite: every registered solver vs the contract.

Parametrized over :func:`repro.sat.registered_solvers`, so installing
an optional backend (e.g. ``pip install python-sat``) automatically
widens the matrix.  Each test gates on the capability it exercises —
a backend that declares ``checkpoint`` off *skips* the frame tests
instead of failing them, so the suite documents exactly which part of
the warm-start contract each backend honours.
"""

import pytest

from repro.attacks.sat_attack import sat_attack
from repro.levers import SOLVER
from repro.circuit.random_circuits import random_netlist
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.sat import (
    BudgetExhausted,
    SolverCapabilities,
    create_solver,
    register_solver,
    registered_solvers,
    resolve_solver_name,
    solver_info,
)

BACKENDS = registered_solvers()


def caps(name: str) -> SolverCapabilities:
    return solver_info(name).capabilities


def needs(name: str, flag: str) -> None:
    if not getattr(caps(name), flag):
        pytest.skip(f"backend {name!r} does not declare {flag}")


def php_clauses(pigeons: int, holes: int) -> list[list[int]]:
    """Pigeonhole clauses (UNSAT when pigeons > holes): conflict fuel."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return clauses


class TestRegistry:
    def test_python_backend_always_registered(self):
        assert "python" in BACKENDS
        info = solver_info("python")
        assert info.supports_sharding
        assert info.capabilities.learnt_export

    def test_unknown_name_raises_with_roster(self):
        with pytest.raises(ValueError, match="registered:.*python"):
            solver_info("no-such-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver(
                "python", capabilities=SolverCapabilities()
            )(lambda: None)

    def test_reregistering_same_factory_is_idempotent(self):
        factory = solver_info("python").factory
        register_solver(
            "python",
            capabilities=SolverCapabilities(
                assumptions=True,
                checkpoint=True,
                learnt_export=True,
                conflict_budget=True,
            ),
        )(factory)
        assert solver_info("python").factory is factory

    def test_env_var_sets_process_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "python")
        assert SOLVER.current() == "python"
        assert resolve_solver_name(None) == "python"
        monkeypatch.setenv("REPRO_SOLVER", "no-such-backend")
        with pytest.raises(ValueError, match="unknown solver backend"):
            resolve_solver_name(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "no-such-backend")
        assert resolve_solver_name("python") == "python"

    def test_sharding_needs_checkpoint_and_assumptions(self):
        info = solver_info("python")
        assert info.supports_sharding == (
            info.capabilities.checkpoint and info.capabilities.assumptions
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestBasicSolving:
    def test_satisfiable(self, name):
        s = create_solver(name)
        assert s.backend_name == name
        s.add_clauses([[1, 2], [-1, 2], [3]])
        assert s.solve()
        assert s.model_value(2) is True
        assert s.model_value(3) is True

    def test_unsatisfiable(self, name):
        s = create_solver(name)
        s.add_clauses([[1], [-1]])
        assert not s.solve()

    def test_model_satisfies_every_clause(self, name):
        clauses = [[1, -2, 3], [-1, 2], [2, -3], [-2, -3, 4], [1, 4]]
        s = create_solver(name)
        s.add_clauses(clauses)
        assert s.solve()
        model = {v: s.model_value(v) for v in range(1, 5)}
        for clause in clauses:
            assert any(
                model[abs(lit)] is (lit > 0) for lit in clause
            ), f"{name}: clause {clause} falsified by {model}"

    def test_stats_contract(self, name):
        s = create_solver(name)
        s.add_clauses([[1, 2], [-1, 2]])
        s.solve()
        stats = s.stats.as_dict()
        for key in ("conflicts", "decisions", "propagations", "solve_calls",
                    "budget_aborts"):
            assert key in stats, f"{name}: stats missing {key!r}"
        assert stats["solve_calls"] == 1
        assert stats["budget_aborts"] == 0


@pytest.mark.parametrize("name", BACKENDS)
class TestAssumptions:
    def test_assumptions_pin_without_poisoning(self, name):
        needs(name, "assumptions")
        s = create_solver(name)
        s.add_clauses([[1, 2]])
        assert s.solve(assumptions=[-1])
        assert s.model_value(2) is True
        # The pin must not persist: the opposite pin still solves.
        assert s.solve(assumptions=[1])
        assert s.model_value(1) is True
        # And an unconstrained call is free again.
        assert s.solve()

    def test_zero_assumption_rejected(self, name):
        """``0`` is no literal, as an assumption as in a clause."""
        s = create_solver(name)
        s.add_clauses([[1, 2]])
        with pytest.raises(ValueError, match="0 is not a valid DIMACS literal"):
            s.add_clause([0])
        with pytest.raises(ValueError, match="0 is not a valid DIMACS literal"):
            s.solve(assumptions=[0])
        assert s.solve(assumptions=[-1])
        assert s.model_value(2) is True

    def test_unsat_under_assumptions_is_not_sticky(self, name):
        needs(name, "assumptions")
        s = create_solver(name)
        s.add_clauses([[1, 2], [1, -2]])
        assert not s.solve(assumptions=[-1])
        assert s.solve()
        assert s.model_value(1) is True


@pytest.mark.parametrize("name", BACKENDS)
class TestConflictBudget:
    def test_budget_abort_raises_and_counts(self, name):
        needs(name, "conflict_budget")
        s = create_solver(name)
        s.add_clauses(php_clauses(6, 5))
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=5)
        assert s.stats.as_dict()["budget_aborts"] == 1

    def test_solver_usable_after_budget_abort(self, name):
        needs(name, "conflict_budget")
        s = create_solver(name)
        s.add_clauses(php_clauses(6, 5))
        with pytest.raises(BudgetExhausted):
            s.solve(conflict_budget=5)
        top = s.num_vars + 1
        s.add_clause([top])
        assert s.solve(assumptions=[top]) or True  # must not raise
        assert s.stats.as_dict()["budget_aborts"] == 1


@pytest.mark.parametrize("name", BACKENDS)
class TestCheckpointFrames:
    def test_rollback_discards_frame_clauses(self, name):
        """The sharded engine's shape: frame clauses hang off a fresh
        guard variable, so rollback erases them wholesale (root units
        on *surviving* variables are kept by contract)."""
        needs(name, "checkpoint")
        needs(name, "assumptions")
        s = create_solver(name)
        s.add_clauses([[1, 2]])
        mark = s.checkpoint()
        guard = s.new_var()
        s.add_clauses([[-guard, -1], [-guard, -2]])
        assert not s.solve(assumptions=[guard])
        s.rollback(mark)
        assert s.num_vars == 2
        assert s.solve()

    def test_frames_reusable_many_times(self, name):
        needs(name, "checkpoint")
        needs(name, "assumptions")
        s = create_solver(name)
        s.add_clauses([[1, 2, 3]])
        for forbidden in (1, 2, 3):
            mark = s.checkpoint()
            guard = s.new_var()
            s.add_clause([-guard, -forbidden])
            assert s.solve(assumptions=[guard])
            assert s.model_value(forbidden) is False
            s.rollback(mark)
        assert s.solve()


@pytest.mark.parametrize("name", BACKENDS)
class TestLearntExchange:
    def test_root_units_exported(self, name):
        """The warm-start bugfix: root-level facts ARE the cheapest
        learnts, and a fresh importer must receive them as units."""
        needs(name, "learnt_export")
        s = create_solver(name)
        for _ in range(3):
            s.new_var()
        s.add_clauses([[1], [-1, 2]])
        assert s.solve()
        exported = s.export_learnts()
        assert [1] in exported
        assert [2] in exported  # propagated at root, not just asserted

    def test_export_respects_max_var(self, name):
        needs(name, "learnt_export")
        s = create_solver(name)
        for _ in range(5):
            s.new_var()
        s.add_clauses([[1], [5], [-1, 2]])
        assert s.solve()
        exported = s.export_learnts(max_var=2)
        assert [1] in exported
        assert [2] in exported
        assert [5] not in exported
        assert all(max(abs(l) for l in c) <= 2 for c in exported)

    def test_unit_round_trip_primes_importer(self, name):
        """A unit the donor *learned* (not asserted) must cross the
        export/import seam and spare the receiver the same conflict."""
        needs(name, "learnt_export")
        clauses = [[1, 2], [1, -2], [2, 3]]  # resolution forces 1=True
        donor = create_solver(name)
        donor.add_clauses(clauses)
        assert donor.solve()
        exported = donor.export_learnts()
        assert [1] in exported  # the learned unit reached the export
        receiver = create_solver(name)
        receiver.add_clauses(clauses)
        assert receiver.import_learnts(exported) >= 1
        assert receiver.solve()
        assert receiver.model_value(1) is True
        # Primed with the donor's fact, the receiver never conflicts.
        assert receiver.stats.as_dict()["conflicts"] == 0

    def test_learnt_clause_round_trip(self, name):
        needs(name, "learnt_export")
        donor = create_solver(name)
        donor.add_clauses(php_clauses(4, 3))
        assert not donor.solve()
        exported = donor.export_learnts()
        receiver = create_solver(name)
        receiver.add_clauses(php_clauses(4, 3))
        receiver.import_learnts(exported)
        assert not receiver.solve()


@pytest.mark.parametrize("name", BACKENDS)
class TestAttackParity:
    """Different backends, identical verdicts (ISSUE acceptance)."""

    def test_sat_attack_same_key_and_dip_count(self, name):
        original = random_netlist(8, 50, seed=7)
        locked = sarlock_lock(original, 4, seed=1)
        result = sat_attack(locked, Oracle(original), solver=name)
        assert result.succeeded
        assert result.key_int == locked.correct_key_int
        # SARLock's DIP count is scheme-determined (one per wrong key),
        # so it is backend-invariant: 2^k - 1.
        assert result.num_dips == 2**4 - 1

    def test_multikey_attack_reports_backend(self, name):
        from repro.core.multikey import multikey_attack

        original = random_netlist(8, 40, seed=3)
        locked = sarlock_lock(original, 4, seed=2)
        result = multikey_attack(
            locked, original, effort=1, engine="sharded", solver=name
        )
        assert result.status == "ok"
        assert result.solver == name
        expected = "sharded" if solver_info(name).supports_sharding else "reference"
        assert result.engine == expected


class TestSpecThreading:
    def test_scenario_spec_resolves_and_validates_solver(self):
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(schemes=["sarlock"])
        assert spec.solver == resolve_solver_name(None)
        with pytest.raises(ValueError, match="unknown solver backend"):
            ScenarioSpec(schemes=["sarlock"], solver="no-such-backend")

    def test_engine_axis_collapses_without_sharding_support(self):
        from repro.scenarios.spec import ScenarioSpec

        @register_solver(
            "_test_flat",
            capabilities=SolverCapabilities(assumptions=True),
        )
        def _flat():  # pragma: no cover - never instantiated
            raise AssertionError

        try:
            spec = ScenarioSpec(
                schemes=["sarlock"],
                engines=["sharded", "reference"],
                solver="_test_flat",
            )
            assert spec.effective_engines("sat") == ["reference"]
            assert spec.size == 1
        finally:
            from repro.sat import registry

            registry._REGISTRY.pop("_test_flat", None)

    def test_attack_request_validates_solver(self):
        from repro.service.envelopes import AttackRequest

        with pytest.raises(ValueError, match="unknown solver backend"):
            AttackRequest(solver="no-such-backend")

    def test_shard_engine_rejects_flat_backend(self):
        from repro.core.sharded import ShardEngine

        @register_solver(
            "_test_flat2",
            capabilities=SolverCapabilities(assumptions=True),
        )
        def _flat():  # pragma: no cover - never instantiated
            raise AssertionError

        try:
            original = random_netlist(6, 30, seed=5)
            locked = sarlock_lock(original, 3, seed=5)
            with pytest.raises(ValueError, match="reference"):
                ShardEngine(
                    locked,
                    Oracle(original),
                    splitting_inputs=[locked.netlist.inputs[0]],
                    solver="_test_flat2",
                )
        finally:
            from repro.sat import registry

            registry._REGISTRY.pop("_test_flat2", None)


class TestSimplify:
    """Root-level preprocessing on the python backend."""

    def test_simplify_preserves_satisfiability(self):
        s = create_solver("python")
        clauses = [[1], [-1, 2], [2, 3, 4], [-2, 4, 5], [-4, -5]]
        s.add_clauses(clauses)
        assert s.simplify()
        assert s.solve()
        model = {v: s.model_value(v) for v in range(1, 6)}
        for clause in clauses:
            assert any(model[abs(lit)] is (lit > 0) for lit in clause)

    def test_simplify_drops_satisfied_and_strips_falsified(self):
        """The sat_attack shape: the miter is encoded first, the pin
        units land afterwards, simplify propagates them back through."""
        s = create_solver("python")
        s.add_clauses([[1, 2], [-1, 2, 3], [2, 4]])
        s.add_clause([1])  # the pin, after the encoding
        assert s.num_clauses == 3
        assert s.simplify()
        # [1, 2] is root-satisfied (dropped); [-1, 2, 3] loses -1.
        assert s.num_clauses == 2
        assert s.solve()

    def test_simplify_reports_root_conflict(self):
        s = create_solver("python")
        s.add_clauses([[1], [-1]])
        assert not s.simplify()
        assert not s.solve()
