"""Simulator tests: bit-parallel semantics and exhaustive patterns."""

import pytest

from repro.circuit.compiled import exhaustive_words
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.simulator import (
    evaluate,
    random_patterns,
    simulate,
    truth_table,
)


def _xor_circuit() -> Netlist:
    n = Netlist("x")
    n.add_inputs(["a", "b"])
    n.add_gate("y", GateType.XOR, ["a", "b"])
    n.set_outputs(["y"])
    return n


class TestSimulate:
    def test_single_pattern(self):
        n = _xor_circuit()
        assert simulate(n, {"a": 1, "b": 0})["y"] == 1
        assert simulate(n, {"a": 1, "b": 1})["y"] == 0

    def test_parallel_lanes(self):
        n = _xor_circuit()
        values = simulate(n, {"a": 0b1100, "b": 0b1010}, width=4)
        assert values["y"] == 0b0110

    def test_missing_input_rejected(self):
        with pytest.raises(KeyError):
            simulate(_xor_circuit(), {"a": 1})

    def test_width_masks_excess_bits(self):
        n = _xor_circuit()
        values = simulate(n, {"a": 0b111111, "b": 0}, width=2)
        assert values["y"] == 0b11

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            simulate(_xor_circuit(), {"a": 1, "b": 1}, width=0)


class TestEvaluate:
    def test_mapping_interface(self):
        assert evaluate(_xor_circuit(), {"a": 1, "b": 1}) == {"y": 0}

    def test_sequence_interface(self):
        assert evaluate(_xor_circuit(), [1, 0]) == {"y": 1}

    def test_sequence_length_checked(self):
        with pytest.raises(ValueError):
            evaluate(_xor_circuit(), [1])


class TestExhaustive:
    def test_patterns_enumerate_all(self):
        pats = exhaustive_words(3)
        seen = set()
        for lane in range(8):
            seen.add(tuple((p >> lane) & 1 for p in pats))
        assert len(seen) == 8

    def test_lane_p_encodes_p(self):
        pats = exhaustive_words(4)
        for lane in range(16):
            value = sum(((pats[j] >> lane) & 1) << j for j in range(4))
            assert value == lane

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_words(25)

    def test_truth_table_xor(self):
        tt = truth_table(_xor_circuit())
        assert tt["y"] == 0b0110  # lanes 00,01,10,11 -> 0,1,1,0

    def test_truth_table_matches_evaluate(self, small_circuit):
        tt = truth_table(small_circuit)
        n_in = len(small_circuit.inputs)
        for pattern in (0, 1, (1 << n_in) - 1, 0b10101 % (1 << n_in)):
            bits = {
                net: (pattern >> j) & 1
                for j, net in enumerate(small_circuit.inputs)
            }
            single = evaluate(small_circuit, bits)
            for out in small_circuit.outputs:
                assert single[out] == (tt[out] >> pattern) & 1


class TestHelpers:
    def test_random_patterns_deterministic(self):
        assert random_patterns(3, 64, seed=5) == random_patterns(3, 64, seed=5)
        assert random_patterns(3, 64, seed=5) != random_patterns(3, 64, seed=6)
