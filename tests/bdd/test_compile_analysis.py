"""BDD compilation and locking-analysis tests."""

import pytest
from hypothesis import given, strategies as st

from repro.bdd.analysis import (
    bdd_equivalence_check,
    count_keys_unlocking_subspace,
    exact_error_rate,
)
from repro.bdd.compile import compile_netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.metrics.engine import error_matrix
from repro.oracle.oracle import Oracle
from repro.attacks.brute_force import brute_force_keys


class TestCompile:
    @given(seed=st.integers(0, 5_000))
    def test_matches_truth_table(self, seed):
        netlist = random_netlist(5, 25, seed=seed, allow_const=True)
        manager, outs, levels = compile_netlist(netlist)
        tables = truth_table(netlist)
        for pattern in range(32):
            assignment = {
                levels[net]: bool((pattern >> j) & 1)
                for j, net in enumerate(netlist.inputs)
            }
            for out in netlist.outputs:
                assert manager.evaluate(outs[out], assignment) == bool(
                    (tables[out] >> pattern) & 1
                )

    def test_custom_order(self):
        netlist = random_netlist(4, 12, seed=3)
        order = list(reversed(netlist.inputs))
        manager, outs, levels = compile_netlist(netlist, input_order=order)
        assert levels[order[0]] == 0

    def test_bad_order_rejected(self):
        netlist = random_netlist(3, 8, seed=1)
        with pytest.raises(ValueError):
            compile_netlist(netlist, input_order=["pi0"])


class TestEquivalence:
    def test_equivalent_after_synthesis(self, small_circuit):
        from repro.synth.optimize import synthesize

        optimized = synthesize(small_circuit).netlist
        assert bdd_equivalence_check(small_circuit, optimized)

    def test_detects_difference(self, small_circuit):
        from repro.circuit.gates import GateType, inverted_type
        from repro.circuit.netlist import Gate

        other = small_circuit.copy()
        out = other.outputs[0]
        gate = other.gates[out]
        inv = inverted_type(gate.gtype) or GateType.NOT
        if inv is GateType.NOT:
            return
        other.gates[out] = Gate(out, inv, gate.inputs)
        assert not bdd_equivalence_check(small_circuit, other)

    def test_agrees_with_sat_cec(self, small_circuit):
        from repro.circuit.equivalence import check_equivalence
        from repro.synth.optimize import synthesize

        # Restructured by optimize_compiled(..., "full") via synthesize().
        other = synthesize(small_circuit).netlist
        assert bdd_equivalence_check(small_circuit, other) == bool(
            check_equivalence(small_circuit, other)
        )


class TestExactErrorRate:
    def test_matches_exhaustive_metric(self):
        original = random_netlist(6, 30, seed=71)
        locked = xor_lock(original, 4, seed=2)
        matrix = error_matrix(locked, original)
        for key in (locked.correct_key_int, locked.correct_key_int ^ 5):
            exact = exact_error_rate(locked, original, key)
            swept = sum(row[key] for row in matrix) / len(matrix)
            assert exact == pytest.approx(swept)

    def test_correct_key_is_zero(self):
        original = random_netlist(6, 30, seed=72)
        locked = sarlock_lock(original, 4, seed=1)
        assert exact_error_rate(locked, original, locked.correct_key_int) == 0.0

    def test_sarlock_point_function(self):
        original = random_netlist(8, 40, seed=73)
        locked = sarlock_lock(original, 6, seed=1)
        wrong = locked.correct_key_int ^ 1
        # exactly one of the 2^6 protected patterns errs.
        assert exact_error_rate(locked, original, wrong) == pytest.approx(
            1 / 64
        )


class TestExactKeyCounting:
    def test_matches_brute_force(self):
        original = random_netlist(5, 25, seed=74)
        locked = sarlock_lock(original, 4, seed=3)
        pin = {original.inputs[0]: False}
        exact = count_keys_unlocking_subspace(locked, original, pin)
        brute = brute_force_keys(locked, Oracle(original), pin=pin)
        assert exact == len(brute)

    def test_full_space_sarlock_has_one_key(self):
        original = random_netlist(5, 25, seed=75)
        locked = sarlock_lock(original, 4, seed=3)
        assert count_keys_unlocking_subspace(locked, original) == 1

    def test_beyond_brute_force_scale(self):
        """12 protected bits + 12 key bits + 20 free inputs: far beyond
        the 22-bit brute-force cap, exact via BDDs.  Pinning p of the
        protected inputs leaves 2^p keys able to err, so the unlock
        count is 2^|K| - 2^(|K|-p) + 1."""
        original = random_netlist(20, 60, seed=76)
        locked = sarlock_lock(original, 12, seed=4)
        pinned = {net: False for net in locked.meta["protected_inputs"][:4]}
        count = count_keys_unlocking_subspace(locked, original, pinned)
        assert count == 2**12 - 2**8 + 1

    def test_matches_metric_module(self):
        original = random_netlist(5, 20, seed=77)
        locked = xor_lock(original, 3, seed=1)
        pin = {original.inputs[1]: True}
        exact = count_keys_unlocking_subspace(locked, original, pin)
        listed = brute_force_keys(locked, Oracle(original), pin=pin)
        assert exact == len(listed)

    def test_unknown_pin_rejected(self):
        original = random_netlist(5, 20, seed=78)
        locked = xor_lock(original, 3, seed=1)
        with pytest.raises(ValueError):
            count_keys_unlocking_subspace(locked, original, {"nope": True})
