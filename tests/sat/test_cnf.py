"""Tests for the CNF container."""

import pytest

from repro.sat.cnf import CNF


class TestCNF:
    def test_new_var_sequence(self):
        cnf = CNF()
        assert [cnf.new_var() for _ in range(3)] == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_new_vars_bulk(self):
        cnf = CNF(2)
        assert cnf.new_vars(3) == [3, 4, 5]

    def test_new_vars_negative_rejected(self):
        with pytest.raises(ValueError):
            CNF().new_vars(-1)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CNF(-5)

    def test_add_clause_grows_vars(self):
        cnf = CNF()
        cnf.add_clause([4, -7])
        assert cnf.num_vars == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            CNF().add_clause([1, 0])

    def test_extend_merges(self):
        a = CNF(2)
        a.add_clause([1, 2])
        b = CNF(3)
        b.add_clause([-3])
        a.extend(b)
        assert a.num_vars == 3
        assert len(a) == 2

    def test_copy_is_deep_for_clauses(self):
        a = CNF(2)
        a.add_clause([1, 2])
        b = a.copy()
        b.clauses[0].append(-1)
        assert a.clauses[0] == [1, 2]

    def test_solve_returns_model(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1, 2])
        model = cnf.solve()
        assert model is not None
        assert set(model) == {1, 2}

    def test_solve_none_when_unsat(self):
        cnf = CNF()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert cnf.solve() is None

    def test_is_satisfied_by(self):
        cnf = CNF()
        cnf.add_clause([1, -2])
        assert cnf.is_satisfied_by({1: True, 2: True})
        assert cnf.is_satisfied_by({1: False, 2: False})
        assert not cnf.is_satisfied_by({1: False, 2: True})

    def test_repr(self):
        cnf = CNF(3)
        cnf.add_clause([1, 2])
        assert "vars=3" in repr(cnf)

