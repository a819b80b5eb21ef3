"""SAT-based combinational equivalence checking (CEC).

Builds the classic miter — two circuits sharing primary inputs, output
pairs XORed and ORed into one signal — and asks the SAT solver whether
that signal can be 1.  UNSAT proves functional equivalence; SAT yields
a counterexample input pattern.

Fig. 1(b) of the paper is verified this way: the MUX composition of
two "incorrect" keys must be equivalent to the original circuit.

Both circuits are encoded straight into one python
:class:`~repro.sat.solver.Solver` through
:func:`repro.circuit.cnf.encode_gates`.  CEC always proves on the
python backend; it does not follow the ``solver`` lever.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.cnf import encode_gate, encode_gates
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError
from repro.sat.solver import Solver


@dataclass
class EquivalenceResult:
    """Outcome of a CEC run."""

    equivalent: bool
    counterexample: dict[str, int] | None = None
    outputs_a: dict[str, int] | None = None
    outputs_b: dict[str, int] | None = None
    solver_stats: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _check_interfaces(a: Netlist, b: Netlist) -> None:
    if set(a.inputs) != set(b.inputs):
        raise NetlistError(
            "circuits have different primary inputs: "
            f"{sorted(set(a.inputs) ^ set(b.inputs))}"
        )
    if set(a.outputs) != set(b.outputs):
        raise NetlistError(
            "circuits have different primary outputs: "
            f"{sorted(set(a.outputs) ^ set(b.outputs))}"
        )


def check_equivalence(a: Netlist, b: Netlist) -> EquivalenceResult:
    """Prove or refute functional equivalence of two netlists.

    The circuits must have identical input and output name sets; input
    order may differ.
    """
    _check_interfaces(a, b)
    solver = Solver()
    ca, cb = a.compile(), b.compile()
    vars_a = [0] * ca.num_slots
    for net in ca.inputs:
        vars_a[ca.slot_of[net]] = solver.new_var()
    encode_gates(solver, ca, vars_a, range(ca.num_gates))
    vars_b = [0] * cb.num_slots
    for net in cb.inputs:
        vars_b[cb.slot_of[net]] = vars_a[ca.slot_of[net]]
    encode_gates(solver, cb, vars_b, range(cb.num_gates))

    def var_a(net: str) -> int:
        return vars_a[ca.slot_of[net]]

    def var_b(net: str) -> int:
        return vars_b[cb.slot_of[net]]

    # XOR each output pair, OR the XORs, assert the OR.
    diff_vars = []
    for out in a.outputs:
        diff = solver.new_var()
        encode_gate(solver, GateType.XOR, diff, [var_a(out), var_b(out)])
        diff_vars.append(diff)
    solver.add_clause(diff_vars)

    if not solver.solve():
        return EquivalenceResult(
            equivalent=True, solver_stats=solver.stats.as_dict()
        )

    def values(var_of, nets) -> dict[str, int]:
        return {net: int(solver.model_value(var_of(net)) or 0) for net in nets}

    return EquivalenceResult(
        equivalent=False,
        counterexample=values(var_a, a.inputs),
        outputs_a=values(var_a, a.outputs),
        outputs_b=values(var_b, b.outputs),
        solver_stats=solver.stats.as_dict(),
    )
