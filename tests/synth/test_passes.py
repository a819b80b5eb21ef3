"""Sharing and dead-logic sweeps through ``synthesize``, decomposition."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table
from repro.synth.mapping import decompose_to_max_arity
from repro.synth.optimize import synthesize


def _synth(netlist: Netlist) -> Netlist:
    return synthesize(netlist).netlist


class TestStrash:
    def test_merges_identical_gates(self):
        n = Netlist()
        n.add_inputs(["a", "b"])
        n.add_gate("x", GateType.AND, ["a", "b"])
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.add_gate("z", GateType.OR, ["x", "y"])
        n.set_outputs(["z"])
        s = _synth(n)
        assert s.num_gates == 2  # one AND survives; OR(x, x) is a BUF of it

    def test_commutative_inputs_merge(self):
        n = Netlist()
        n.add_inputs(["a", "b"])
        n.add_gate("x", GateType.AND, ["a", "b"])
        n.add_gate("y", GateType.AND, ["b", "a"])
        n.set_outputs(["x", "y"])
        s = _synth(n)
        # Both outputs survive by name; one is a BUF of the other.
        assert truth_table(s)["x"] == truth_table(s)["y"]
        kinds = {s.gates["x"].gtype, s.gates["y"].gtype}
        assert GateType.BUF in kinds

    def test_cascading_merges_single_pass(self):
        n = Netlist()
        n.add_inputs(["a", "b"])
        n.add_gate("x1", GateType.AND, ["a", "b"])
        n.add_gate("x2", GateType.AND, ["a", "b"])
        n.add_gate("y1", GateType.NOT, ["x1"])
        n.add_gate("y2", GateType.NOT, ["x2"])
        n.set_outputs(["y1", "y2"])
        s = _synth(n)
        real_gates = [
            g for g in s.gates.values() if g.gtype is not GateType.BUF
        ]
        assert len(real_gates) == 2  # one AND + one NOT


class TestDeadGateRemoval:
    def test_removes_unreachable(self, small_circuit):
        n = small_circuit.copy()
        n.add_gate("dead1", GateType.NOT, ["pi0"])
        n.add_gate("dead2", GateType.AND, ["dead1", "pi1"])
        cleaned = _synth(n)
        assert "dead1" not in cleaned.gates
        assert "dead2" not in cleaned.gates

    def test_function_unchanged(self, small_circuit):
        cleaned = _synth(small_circuit)
        tt_a, tt_b = truth_table(small_circuit), truth_table(cleaned)
        assert all(tt_a[o] == tt_b[o] for o in small_circuit.outputs)


class TestDecompose:
    @pytest.mark.parametrize("max_arity", [2, 3])
    def test_bounds_arity(self, max_arity):
        n = Netlist()
        n.add_inputs([f"i{k}" for k in range(9)])
        n.add_gate("y", GateType.NAND, [f"i{k}" for k in range(9)])
        n.set_outputs(["y"])
        d = decompose_to_max_arity(n, max_arity)
        d.validate()
        assert all(len(g.inputs) <= max_arity for g in d.gates.values())
        assert truth_table(d)["y"] == truth_table(n)["y"]

    def test_bad_arity_rejected(self, small_circuit):
        with pytest.raises(ValueError):
            decompose_to_max_arity(small_circuit, 1)

    @given(seed=st.integers(0, 5_000))
    def test_function_preserved(self, seed):
        n = random_netlist(5, 25, seed=seed)
        d = decompose_to_max_arity(n, 2)
        d.validate()
        tt_a, tt_b = truth_table(n), truth_table(d)
        assert all(tt_a[o] == tt_b[o] for o in n.outputs)


class TestSynthesizePipeline:
    def test_reports_reduction(self, small_circuit):
        result = synthesize(small_circuit, {"pi0": True, "pi1": False})
        assert result.gates_before == small_circuit.num_gates
        assert result.gates_after == result.netlist.num_gates
        assert 0.0 <= result.reduction <= 1.0
        assert result.elapsed_seconds >= 0

    @given(seed=st.integers(0, 5_000))
    def test_full_pipeline_preserves_function(self, seed):
        n = random_netlist(5, 40, seed=seed, allow_const=True)
        result = synthesize(n)
        result.netlist.validate()
        tt_a, tt_b = truth_table(n), truth_table(result.netlist)
        assert all(tt_a[o] == tt_b[o] for o in n.outputs)

    def test_empty_pin_is_rewrite_only(self, small_circuit):
        result = synthesize(small_circuit)
        assert result.netlist.inputs == small_circuit.inputs
