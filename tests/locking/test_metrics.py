"""Fig. 1(a) machinery: the error matrix, its rendering, the keys that
unlock a sub-space, and per-key error rates.

The matrix is :func:`repro.metrics.engine.error_matrix` (an exhaustive
view over ``key_diffs``), the rendering is Figure 1's
:func:`~repro.experiments.figure1.format_error_matrix`, sub-space keys
come from :func:`~repro.attacks.brute_force.brute_force_keys`, and
rates from the BDD package's exact
:func:`~repro.bdd.analysis.exact_error_rate`.
"""

import random
from functools import reduce
from operator import or_

import pytest

from repro.attacks.brute_force import brute_force_keys
from repro.bdd.analysis import exact_error_rate
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import random_stimuli_words
from repro.experiments.figure1 import format_error_matrix
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.metrics.engine import error_matrix, key_diffs
from repro.oracle.oracle import Oracle


def _fig1_circuit() -> Netlist:
    n = Netlist("fig1")
    n.add_inputs(["i0", "i1", "i2"])
    n.add_gate("t", GateType.XOR, ["i0", "i1"])
    n.add_gate("y", GateType.XOR, ["t", "i2"])
    n.set_outputs(["y"])
    return n


def _subspace_keys(locked, original, pin):
    return brute_force_keys(locked, Oracle(original), pin=pin)


class TestErrorMatrix:
    def test_fig1a_exact(self):
        original = _fig1_circuit()
        locked = sarlock_lock(
            original, 3, correct_key=0b101, protected_inputs=["i0", "i1", "i2"]
        )
        matrix = error_matrix(locked, original)
        for i in range(8):
            for k in range(8):
                assert matrix[i][k] == ((i == k) and (k != 0b101))

    def test_correct_key_column_is_clean(self, small_circuit):
        locked = xor_lock(small_circuit, 3, seed=2)
        matrix = error_matrix(locked, small_circuit)
        k_star = locked.correct_key_int
        assert all(not row[k_star] for row in matrix)

    def test_too_wide_rejected(self):
        original = random_netlist(12, 30, seed=0)
        locked = xor_lock(original, 12, seed=0)
        with pytest.raises(ValueError):
            error_matrix(locked, original)

    def test_format_matrix(self):
        original = _fig1_circuit()
        locked = sarlock_lock(original, 3, correct_key=0b101)
        text = format_error_matrix(error_matrix(locked, original), key_width=3)
        assert "x" in text and "." in text
        assert len(text.splitlines()) == 9  # header + 8 input rows


class TestSubspaceKeys:
    def test_fig1a_msb_halves(self):
        original = _fig1_circuit()
        locked = sarlock_lock(
            original, 3, correct_key=0b101, protected_inputs=["i0", "i1", "i2"]
        )
        # Keys displayed MSB-first in the paper: 100,101,110,111 unlock
        # the MSB=0 half -> ints with bit2 set, i.e. {4,5,6,7}.
        msb0 = _subspace_keys(locked, original, {"i2": False})
        assert set(msb0) == {4, 5, 6, 7}
        msb1 = _subspace_keys(locked, original, {"i2": True})
        assert set(msb1) == {0, 1, 2, 3, 5}

    def test_empty_pin_yields_only_correct_keys(self):
        original = _fig1_circuit()
        locked = sarlock_lock(original, 3, correct_key=0b011)
        assert _subspace_keys(locked, original, {}) == [0b011]

    def test_unknown_pin_rejected(self):
        original = _fig1_circuit()
        locked = sarlock_lock(original, 3)
        with pytest.raises(ValueError):
            _subspace_keys(locked, original, {"zz": True})

    def test_subspace_set_grows_with_restriction(self, small_circuit):
        locked = sarlock_lock(small_circuit, 4, seed=1)
        full = _subspace_keys(locked, small_circuit, {})
        half = _subspace_keys(
            locked, small_circuit, {small_circuit.inputs[0]: False}
        )
        assert set(full) <= set(half)
        assert len(half) >= len(full)


class TestErrorRate:
    def test_correct_key_rate_zero_exhaustive(self, small_circuit):
        locked = xor_lock(small_circuit, 4, seed=9)
        assert exact_error_rate(locked, small_circuit, locked.correct_key_int) == 0.0

    def test_correct_key_rate_zero_sampled(self, small_circuit):
        locked = xor_lock(small_circuit, 4, seed=9)
        oracle = Oracle(small_circuit)
        stimuli = random_stimuli_words(
            oracle.input_names, 512, random.Random(0)
        )
        [diffs] = key_diffs(
            locked, oracle, [locked.correct_key_int], stimuli, 512
        )
        rate = reduce(or_, diffs, 0).bit_count() / 512
        assert rate == 0.0

    def test_sarlock_wrong_key_rate_is_pointlike(self, small_circuit):
        locked = sarlock_lock(small_circuit, 4, seed=3)
        wrong = locked.correct_key_int ^ 0b1
        rate = exact_error_rate(locked, small_circuit, wrong)
        # exactly one of 2^4 protected patterns errs; inputs beyond the
        # protected ones don't affect the comparator.
        assert rate == pytest.approx(1 / 16)

    def test_xor_wrong_key_rate_large(self, small_circuit):
        locked = xor_lock(small_circuit, 4, seed=9)
        wrong = locked.correct_key_int ^ 0b1111
        assert exact_error_rate(locked, small_circuit, wrong) > 0.25
