"""Property test: ``encode_gates`` into a solver agrees with simulation.

The encodings go into ``create_solver()``, so with ``REPRO_SOLVER`` set
the same checks run on that backend.
"""

from hypothesis import given, strategies as st

from repro.circuit.cnf import encode_gates
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import evaluate
from repro.sat.registry import create_solver


def _encode(netlist, solver, input_vars=None):
    """Encode ``netlist`` into ``solver``; return its slot variables.

    ``input_vars`` pre-assigns the primary inputs' variables (one per
    input, in input order); otherwise each input gets a fresh one.
    """
    compiled = netlist.compile()
    slot_vars = [0] * compiled.num_slots
    for j, net in enumerate(compiled.inputs):
        var = input_vars[j] if input_vars else solver.new_var()
        slot_vars[compiled.slot_of[net]] = var
    encode_gates(solver, compiled, slot_vars, range(compiled.num_gates))
    return compiled, slot_vars


@given(
    seed=st.integers(0, 10_000),
    pattern=st.integers(0, 31),
    allow_const=st.booleans(),
)
def test_encoding_matches_simulation(seed, pattern, allow_const):
    """Force the inputs; the unique model must match simulation."""
    netlist = random_netlist(5, 30, seed=seed, allow_const=allow_const)
    solver = create_solver()
    compiled, slot_vars = _encode(netlist, solver)
    bits = {net: (pattern >> j) & 1 for j, net in enumerate(netlist.inputs)}
    for net, bit in bits.items():
        var = slot_vars[compiled.slot_of[net]]
        solver.add_clause([var if bit else -var])
    assert solver.solve()
    expected = evaluate(netlist, bits)
    for out in netlist.outputs:
        var = slot_vars[compiled.slot_of[out]]
        assert solver.model_value(var) == bool(expected[out])


@given(seed=st.integers(0, 10_000))
def test_wrong_output_is_unsat(seed):
    """Forcing any output to the wrong value must be unsatisfiable."""
    netlist = random_netlist(4, 20, seed=seed)
    solver = create_solver()
    compiled, slot_vars = _encode(netlist, solver)
    pattern = seed % 16
    bits = {net: (pattern >> j) & 1 for j, net in enumerate(netlist.inputs)}
    for net, bit in bits.items():
        var = slot_vars[compiled.slot_of[net]]
        solver.add_clause([var if bit else -var])
    out = netlist.outputs[0]
    expected = evaluate(netlist, bits)[out]
    var = slot_vars[compiled.slot_of[out]]
    solver.add_clause([-var if expected else var])
    assert solver.solve() is False


def test_share_map_reuses_variables():
    """Two encodings sharing input variables share only those."""
    netlist = random_netlist(3, 8, seed=1)
    solver = create_solver()
    compiled, first = _encode(netlist, solver)
    shared = [first[compiled.slot_of[net]] for net in compiled.inputs]
    _, second = _encode(netlist, solver, input_vars=shared)
    for net in netlist.inputs:
        slot = compiled.slot_of[net]
        assert first[slot] == second[slot]
    gate_slots = [compiled.slot_of[net] for net in netlist.gates]
    first_gates = {first[slot] for slot in gate_slots}
    second_gates = {second[slot] for slot in gate_slots}
    assert first_gates.isdisjoint(second_gates)
    assert first_gates.isdisjoint(shared)
    assert second_gates.isdisjoint(shared)


def test_lit_helper_polarity():
    """A negated input literal forces that input to 0, a positive to 1."""
    netlist = random_netlist(2, 3, seed=0)
    for value in (False, True):
        solver = create_solver()
        compiled, slot_vars = _encode(netlist, solver)
        var = slot_vars[compiled.slot_of[netlist.inputs[0]]]
        solver.add_clause([var if value else -var])
        assert solver.solve()
        assert solver.model_value(var) is value
