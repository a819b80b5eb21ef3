"""Arity-bounded decomposition (pre-mapping).

Real cell libraries top out at 3- or 4-input cells; this pass rewrites
wide AND/OR/XOR trees into balanced trees of bounded-arity gates so
area estimation and LUT insertion have realistic structure to
work with.
"""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.netlist import Gate, Netlist, fresh_net_namer

_REDUCIBLE = {
    GateType.AND: (GateType.AND, False),
    GateType.OR: (GateType.OR, False),
    GateType.XOR: (GateType.XOR, False),
    GateType.NAND: (GateType.AND, True),
    GateType.NOR: (GateType.OR, True),
    GateType.XNOR: (GateType.XOR, True),
}


def decompose_to_max_arity(netlist: Netlist, max_arity: int = 2) -> Netlist:
    """Rewrite wide gates into trees of gates with at most ``max_arity`` inputs.

    The inverting types keep their inversion at the tree root (e.g. a
    4-input NAND becomes AND(AND(a,b), AND(c,d)) under a NAND root).
    MUX/NOT/BUF/CONST gates pass through unchanged.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be at least 2")
    result = Netlist(name=netlist.name)
    result.inputs = list(netlist.inputs)
    namer = fresh_net_namer(netlist, "map_")

    for gate in netlist.topological_order():
        if gate.gtype not in _REDUCIBLE or len(gate.inputs) <= max_arity:
            result.gates[gate.output] = gate
            continue
        base, inverted = _REDUCIBLE[gate.gtype]
        layer = list(gate.inputs)
        while len(layer) > max_arity:
            next_layer: list[str] = []
            for start in range(0, len(layer), max_arity):
                chunk = layer[start : start + max_arity]
                if len(chunk) == 1:
                    next_layer.append(chunk[0])
                    continue
                aux = namer()
                result.gates[aux] = Gate(aux, base, tuple(chunk))
                next_layer.append(aux)
            layer = next_layer
        root_type = gate.gtype if inverted else base
        if inverted:
            root_type = {
                GateType.AND: GateType.NAND,
                GateType.OR: GateType.NOR,
                GateType.XOR: GateType.XNOR,
            }[base]
        result.gates[gate.output] = Gate(gate.output, root_type, tuple(layer))
    result.set_outputs(list(netlist.outputs))
    return result
