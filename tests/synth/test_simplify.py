"""Pinned-synthesis tests: folding rules, pinning, equivalence properties.

``synthesize`` is pinned synthesis on ``repro.circuit.opt``; these
tests check the rebuilt :class:`Netlist` it hands back (output driver
names and types, interface), where ``tests/circuit/test_opt.py``
checks the compiled passes themselves.
"""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table
from repro.synth.optimize import synthesize


def _net(*inputs: str) -> Netlist:
    n = Netlist("t")
    n.add_inputs(list(inputs))
    return n


def rewrite(netlist: Netlist) -> Netlist:
    """Synthesis with no pins: the folding rules alone."""
    return synthesize(netlist).netlist


class TestIdentities:
    def test_and_with_zero_is_zero(self):
        n = _net("a")
        n.add_gate("z", GateType.CONST0, [])
        n.add_gate("y", GateType.AND, ["a", "z"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert truth_table(s)["y"] == 0
        assert s.gates["y"].gtype is GateType.CONST0

    def test_and_with_one_passes_through(self):
        n = _net("a")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("y", GateType.AND, ["a", "one"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert s.gates["y"].gtype is GateType.BUF
        assert s.gates["y"].inputs == ("a",)

    def test_and_duplicate_inputs(self):
        n = _net("a")
        n.add_gate("y", GateType.AND, ["a", "a", "a"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.BUF

    def test_and_complementary_inputs(self):
        n = _net("a")
        n.add_gate("na", GateType.NOT, ["a"])
        n.add_gate("y", GateType.AND, ["a", "na"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.CONST0

    def test_or_complementary_inputs(self):
        n = _net("a")
        n.add_gate("na", GateType.NOT, ["a"])
        n.add_gate("y", GateType.OR, ["a", "na"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.CONST1

    def test_xor_self_cancels(self):
        n = _net("a")
        n.add_gate("y", GateType.XOR, ["a", "a"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.CONST0

    def test_xor_with_complement_is_one(self):
        n = _net("a")
        n.add_gate("na", GateType.NOT, ["a"])
        n.add_gate("y", GateType.XOR, ["a", "na"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.CONST1

    def test_double_negation_collapses(self):
        n = _net("a")
        n.add_gate("n1", GateType.NOT, ["a"])
        n.add_gate("n2", GateType.NOT, ["n1"])
        n.add_gate("y", GateType.BUF, ["n2"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert s.gates["y"].gtype is GateType.BUF
        assert s.gates["y"].inputs == ("a",)
        assert s.num_gates == 1

    def test_nand_single_literal_becomes_not(self):
        n = _net("a")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("y", GateType.NAND, ["a", "one"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.NOT


class TestMux:
    def test_const_select(self):
        n = _net("a", "b", "s")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("y", GateType.MUX, ["one", "a", "b"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert s.gates["y"].inputs == ("a",)

    def test_same_branches(self):
        n = _net("a", "s")
        n.add_gate("y", GateType.MUX, ["s", "a", "a"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].inputs == ("a",)

    def test_const_branches_become_select(self):
        n = _net("s")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("y", GateType.MUX, ["s", "one", "zero"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert s.gates["y"].gtype is GateType.BUF
        assert s.gates["y"].inputs == ("s",)

    def test_const_branches_inverted(self):
        n = _net("s")
        n.add_gate("one", GateType.CONST1, [])
        n.add_gate("zero", GateType.CONST0, [])
        n.add_gate("y", GateType.MUX, ["s", "zero", "one"])
        n.set_outputs(["y"])
        assert rewrite(n).gates["y"].gtype is GateType.NOT

    def test_complement_branches_become_xor(self):
        n = _net("s", "x")
        n.add_gate("nx", GateType.NOT, ["x"])
        n.add_gate("y", GateType.MUX, ["s", "nx", "x"])
        n.set_outputs(["y"])
        s = rewrite(n)
        assert s.gates["y"].gtype in (GateType.XOR, GateType.XNOR)
        tt = truth_table(s)
        assert tt["y"] == truth_table(n)["y"]


class TestPinning:
    def test_pin_keeps_interface(self, small_circuit):
        s = synthesize(small_circuit, {"pi0": True}).netlist
        assert s.inputs == small_circuit.inputs
        assert s.outputs == small_circuit.outputs

    def test_pin_reduces_gates(self, small_circuit):
        s = synthesize(
            small_circuit, {"pi0": True, "pi1": False, "pi2": True}
        ).netlist
        assert s.num_gates < small_circuit.num_gates

    def test_pin_unknown_input_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            synthesize(small_circuit, {"nope": True})

    def test_pinned_output_becomes_const(self):
        n = _net("a", "b")
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.set_outputs(["y"])
        s = synthesize(n, {"a": False}).netlist
        assert s.gates["y"].gtype is GateType.CONST0
        assert s.inputs == ["a", "b"]


@given(seed=st.integers(0, 10_000), allow_const=st.booleans())
def test_rewrite_preserves_function(seed, allow_const):
    n = random_netlist(5, 35, seed=seed, allow_const=allow_const)
    s = rewrite(n)
    s.validate()
    tt_a, tt_b = truth_table(n), truth_table(s)
    assert all(tt_a[o] == tt_b[o] for o in n.outputs)


@given(seed=st.integers(0, 10_000), pins=st.integers(0, 7))
def test_pinning_preserves_consistent_patterns(seed, pins):
    n = random_netlist(5, 30, seed=seed)
    pin = {f"pi{j}": bool((pins >> j) & 1) for j in range(3)}
    s = synthesize(n, pin).netlist
    s.validate()
    assert s.inputs == n.inputs
    tt_a, tt_b = truth_table(n), truth_table(s)
    for pattern in range(32):
        if any(((pattern >> j) & 1) != int(pin[f"pi{j}"]) for j in range(3)):
            continue
        for out in n.outputs:
            assert ((tt_a[out] >> pattern) & 1) == ((tt_b[out] >> pattern) & 1)


@given(seed=st.integers(0, 10_000))
def test_rewrite_is_idempotent_in_size(seed):
    n = random_netlist(5, 30, seed=seed, allow_const=True)
    once = rewrite(n)
    twice = rewrite(once)
    assert twice.num_gates <= once.num_gates
