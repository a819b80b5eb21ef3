"""LockedCircuit plumbing: key formats, apply_key, verification."""

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table
from repro.locking.base import (
    LockedCircuit,
    LockingError,
    fresh_key_names,
    key_from_int,
    key_to_int,
    random_key,
)
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock


class TestKeyConversions:
    def test_round_trip(self):
        for value in (0, 1, 5, 255):
            assert key_to_int(key_from_int(value, 8)) == value

    def test_bit_order_lsb_first(self):
        assert key_from_int(0b01, 2) == (1, 0)
        assert key_to_int((1, 0)) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            key_from_int(4, 2)
        with pytest.raises(ValueError):
            key_from_int(-1, 2)

    def test_random_key_deterministic_by_seed(self):
        assert random_key(16, seed=3) == random_key(16, seed=3)
        assert len(random_key(16, seed=3)) == 16


class TestLockedCircuit:
    def _locked(self, small_circuit):
        return xor_lock(small_circuit, 4, seed=0)

    def test_key_size(self, small_circuit):
        assert self._locked(small_circuit).key_size == 4

    def test_key_assignment_from_int(self, small_circuit):
        lk = self._locked(small_circuit)
        asg = lk.key_assignment(0b1010)
        assert asg[lk.key_inputs[1]] is True
        assert asg[lk.key_inputs[0]] is False

    def test_key_assignment_from_bits(self, small_circuit):
        lk = self._locked(small_circuit)
        assert lk.key_assignment([1, 0, 0, 1])[lk.key_inputs[3]] is True

    def test_key_assignment_from_mapping(self, small_circuit):
        lk = self._locked(small_circuit)
        asg = {net: i % 2 == 0 for i, net in enumerate(lk.key_inputs)}
        assert lk.key_assignment(asg) == asg

    def test_wrong_width_rejected(self, small_circuit):
        lk = self._locked(small_circuit)
        with pytest.raises(ValueError):
            lk.key_assignment([1, 0])

    def test_apply_key_drops_key_ports(self, small_circuit):
        lk = self._locked(small_circuit)
        keyed = lk.apply_key(lk.correct_key)
        assert keyed.inputs == small_circuit.inputs
        assert keyed.outputs == small_circuit.outputs

    @pytest.mark.parametrize("lock", [sarlock_lock, xor_lock])
    def test_apply_key_is_locked_table_sliced_at_key(self, lock):
        original = random_netlist(5, 24, seed=3)
        lk = lock(original, 4, seed=1)
        locked_tt = truth_table(lk.netlist)
        pos = {net: j for j, net in enumerate(lk.netlist.inputs)}
        for key in range(1 << lk.key_size):
            keyed = lk.apply_key(key)
            assert keyed.inputs == original.inputs
            assert keyed.outputs == original.outputs
            keyed_tt = truth_table(keyed)
            key_bits = sum(
                1 << pos[net]
                for net, bit in lk.key_assignment(key).items()
                if bit
            )
            for pattern in range(1 << len(keyed.inputs)):
                locked_pattern = key_bits | sum(
                    1 << pos[net]
                    for j, net in enumerate(keyed.inputs)
                    if (pattern >> j) & 1
                )
                for out in keyed.outputs:
                    assert (keyed_tt[out] >> pattern) & 1 == (
                        locked_tt[out] >> locked_pattern
                    ) & 1

    def test_verify_correct_key(self, small_circuit):
        lk = self._locked(small_circuit)
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent

    def test_mismatched_key_width_rejected_at_construction(self, small_circuit):
        lk = self._locked(small_circuit)
        with pytest.raises(LockingError):
            LockedCircuit(
                netlist=lk.netlist,
                key_inputs=lk.key_inputs,
                correct_key=(0, 1),
                original_inputs=lk.original_inputs,
            )

    def test_missing_ports_rejected(self, small_circuit):
        lk = self._locked(small_circuit)
        with pytest.raises(LockingError):
            LockedCircuit(
                netlist=small_circuit,  # has no key ports
                key_inputs=lk.key_inputs,
                correct_key=lk.correct_key,
                original_inputs=lk.original_inputs,
            )

    def test_is_correct_interface(self, small_circuit):
        lk = self._locked(small_circuit)
        assert lk.is_correct_interface(small_circuit)


class TestFreshKeyNames:
    def test_avoids_collisions(self):
        n = Netlist()
        n.add_input("keyinput0")
        n.add_gate("keyinput2", GateType.NOT, ["keyinput0"])
        names = fresh_key_names(n, 3)
        assert "keyinput0" not in names
        assert "keyinput2" not in names
        assert len(set(names)) == 3
