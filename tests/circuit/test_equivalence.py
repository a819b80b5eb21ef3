"""CEC tests: miters, counterexamples, interface checking."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.netlist import Gate, Netlist, NetlistError
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import evaluate, truth_table
from repro.synth.optimize import synthesize


def _with_flipped_gate(netlist: Netlist) -> Netlist:
    from repro.circuit.gates import inverted_type

    flipped = netlist.copy()
    for net, gate in flipped.gates.items():
        inv = inverted_type(gate.gtype)
        if inv is not None and net in flipped.outputs:
            flipped.gates[net] = Gate(net, inv, gate.inputs)
            return flipped
    # Fall back: invert the first output through a NOT chain rebuild.
    out = flipped.outputs[0]
    gate = flipped.gates[out]
    moved = out + "_orig"
    flipped.gates[moved] = Gate(moved, gate.gtype, gate.inputs)
    del flipped.gates[out]
    flipped.gates[out] = Gate(out, GateType.NOT, (moved,))
    return flipped


class TestCheckEquivalence:
    def test_identical_circuits(self, small_circuit):
        assert check_equivalence(small_circuit, small_circuit.copy()).equivalent

    def test_rewritten_circuit_still_equivalent(self, small_circuit):
        # synthesize() rebuilds the netlist from optimize_compiled(..., "full").
        restructured = synthesize(small_circuit).netlist
        assert check_equivalence(small_circuit, restructured).equivalent

    def test_flipped_gate_not_equivalent(self, small_circuit):
        other = _with_flipped_gate(small_circuit)
        result = check_equivalence(small_circuit, other)
        assert not result.equivalent
        # Counterexample must actually distinguish the circuits.
        ya = evaluate(small_circuit, result.counterexample)
        yb = evaluate(other, result.counterexample)
        assert ya != yb

    def test_input_order_may_differ(self):
        a = Netlist("a")
        a.add_inputs(["x", "y"])
        a.add_gate("o", GateType.AND, ["x", "y"])
        a.set_outputs(["o"])
        b = Netlist("b")
        b.add_inputs(["y", "x"])
        b.add_gate("o", GateType.AND, ["y", "x"])
        b.set_outputs(["o"])
        assert check_equivalence(a, b).equivalent

    def test_different_inputs_rejected(self, small_circuit):
        other = small_circuit.copy()
        other.add_input("extra")
        with pytest.raises(NetlistError):
            check_equivalence(small_circuit, other)

    def test_different_outputs_rejected(self, small_circuit):
        other = small_circuit.copy()
        other.outputs = other.outputs[:-1]
        with pytest.raises(NetlistError):
            check_equivalence(small_circuit, other)

    def test_result_truthiness(self, small_circuit):
        assert bool(check_equivalence(small_circuit, small_circuit.copy()))

    def test_solver_stats_reported(self, small_circuit):
        result = check_equivalence(small_circuit, small_circuit.copy())
        assert result.solver_stats is not None
        assert result.solver_stats["solve_calls"] == 1


@given(seed=st.integers(0, 5_000))
def test_equivalence_agrees_with_truth_tables(seed):
    a = random_netlist(4, 15, seed=seed)
    b = random_netlist(4, 15, seed=seed + 1)
    count = min(len(a.outputs), len(b.outputs))
    a.set_outputs(a.outputs[:count])
    # Present b under a's interface: prefix all of b's internals, then
    # bridge a's output names onto b's outputs with BUF gates.
    renamed = b.renamed("bb_", keep_inputs=b.inputs)
    bridged_outputs = []
    for a_out, b_out in zip(a.outputs, renamed.outputs[:count]):
        renamed.gates[a_out] = Gate(a_out, GateType.BUF, (b_out,))
        bridged_outputs.append(a_out)
    renamed.set_outputs(bridged_outputs)
    renamed.validate()

    tt_a, tt_b = truth_table(a), truth_table(renamed)
    expected = all(tt_a[o] == tt_b[o] for o in a.outputs)
    assert check_equivalence(a, renamed).equivalent == expected
