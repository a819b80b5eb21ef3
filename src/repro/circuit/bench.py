"""ISCAS ``.bench`` format reader and writer.

The `.bench` dialect understood here is the combinational subset used
by the ISCAS'85 suite::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = NOT(G10)

plus our extensions ``MUX(sel, d1, d0)``, ``CONST0()``/``CONST1()`` and
``BUF``/``BUFF`` as synonyms.  Sequential elements (DFF) are rejected:
the locking literature and this paper operate on combinational cores.
"""

from __future__ import annotations

import re

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^([^=\s]+)\s*=\s*([A-Za-z01]+)\s*\(\s*(.*?)\s*\)$")

_TYPE_ALIASES = {
    "BUFF": GateType.BUF,
    "BUF": GateType.BUF,
    "NOT": GateType.NOT,
    "AND": GateType.AND,
    "OR": GateType.OR,
    "NAND": GateType.NAND,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "MUX": GateType.MUX,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse `.bench` text into a :class:`Netlist`."""
    netlist = Netlist(name=name)
    outputs: list[str] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl:
            kind, net = decl.group(1).upper(), decl.group(2)
            if kind == "INPUT":
                netlist.add_input(net)
            else:
                outputs.append(net)
            continue
        gate = _GATE_RE.match(line)
        if gate:
            out, type_name, args = gate.groups()
            type_name = type_name.upper()
            if type_name == "DFF":
                raise NetlistError(
                    f"line {line_no}: sequential element DFF is unsupported "
                    "(combinational cores only)"
                )
            gtype = _TYPE_ALIASES.get(type_name)
            if gtype is None:
                raise NetlistError(
                    f"line {line_no}: unknown gate type {type_name!r}"
                )
            fanins = [a.strip() for a in args.split(",") if a.strip()]
            netlist.add_gate(out, gtype, fanins)
            continue
        raise NetlistError(f"line {line_no}: cannot parse {raw_line!r}")
    netlist.set_outputs(outputs)
    netlist.validate()
    return netlist


def format_bench(netlist: Netlist, header_comments: tuple[str, ...] = ()) -> str:
    """Serialize a :class:`Netlist` to `.bench` text."""
    lines = [f"# {comment}" for comment in header_comments]
    lines.append(f"# {netlist.name}")
    lines.append(
        f"# {len(netlist.inputs)} inputs, {len(netlist.outputs)} outputs, "
        f"{netlist.num_gates} gates"
    )
    lines.extend(f"INPUT({net})" for net in netlist.inputs)
    lines.extend(f"OUTPUT({net})" for net in netlist.outputs)
    for gate in netlist.topological_order():
        args = ", ".join(gate.inputs)
        lines.append(f"{gate.output} = {gate.gtype.value}({args})")
    return "\n".join(lines) + "\n"
