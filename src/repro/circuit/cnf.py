"""Tseitin encoding of gates, straight into a clause sink.

:func:`encode_gate` is the only code that knows Tseitin clause shapes:
every gate clause of the attack miter, its per-DIP copies and the CEC
miter comes from it, output differences included.  :func:`encode_gates`
runs it over a compiled circuit's gate program through a slot-indexed
variable array.

A *sink* is anything with ``new_var()`` and ``add_clauses()``: a
solver backend from :mod:`repro.sat.registry` (the PySAT adapter
included), or a :class:`~repro.sat.cnf.CNF` when a test wants to read
the clauses back.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.circuit.compiled import CompiledCircuit
from repro.circuit.gates import GateType

# A complemented gate is its base gate on the negated output literal.
_COMPLEMENT = {
    GateType.NAND: GateType.AND,
    GateType.NOR: GateType.OR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
}


def encode_gate(sink, gtype: GateType, out: int, ins: list[int]) -> None:
    """Add the Tseitin clauses for ``out = gtype(ins)`` to ``sink``.

    ``out``/``ins`` are DIMACS literals, so callers may pass negated
    operands directly.  NAND/NOR/XNOR/NOT are AND/OR/XOR/BUF on
    ``-out``; OR is AND on ``-out`` over the negated fanins.  XOR over
    ``n > 2`` fanins chains pairwise through ``n - 2`` fresh variables
    from ``sink.new_var``, allocated in chain order.  MUX takes
    ``(sel, d1, d0)`` and adds the two clauses that propagate
    ``d1 == d0`` without deciding ``sel``.

    >>> from repro.sat import CNF
    >>> cnf = CNF(2)
    >>> encode_gate(cnf, GateType.AND, cnf.new_var(), [1, 2])
    >>> cnf.clauses
    [[-3, 1], [-3, 2], [3, -1, -2]]
    """
    if gtype in _COMPLEMENT:
        gtype, out = _COMPLEMENT[gtype], -out
    if gtype is GateType.OR:
        gtype, out, ins = GateType.AND, -out, [-lit for lit in ins]
    if gtype is GateType.XOR and len(ins) < 2:
        gtype = GateType.BUF if ins else GateType.CONST0
    if gtype is GateType.AND:  # with no fanins: the constant 1
        clauses = [[-out, lit] for lit in ins]
        clauses.append([out] + [-lit for lit in ins])
    elif gtype is GateType.XOR:
        clauses = []
        acc = ins[0]
        for k, lit in enumerate(ins[1:], 2):
            res = out if k == len(ins) else sink.new_var()
            clauses += [
                [-res, acc, lit],
                [-res, -acc, -lit],
                [res, -acc, lit],
                [res, acc, -lit],
            ]
            acc = res
    elif gtype is GateType.BUF:
        clauses = [[-out, ins[0]], [out, -ins[0]]]
    elif gtype is GateType.MUX:
        sel, d1, d0 = ins
        clauses = [
            [-sel, -d1, out],
            [-sel, d1, -out],
            [sel, -d0, out],
            [sel, d0, -out],
            [-d1, -d0, out],
            [d1, d0, -out],
        ]
    elif gtype is GateType.CONST1:
        clauses = [[out]]
    elif gtype is GateType.CONST0:
        clauses = [[-out]]
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unsupported gate type {gtype!r}")
    sink.add_clauses(clauses)


def encode_gates(
    sink,
    compiled: CompiledCircuit,
    slot_vars: list[int],
    gate_indices: Iterable[int],
) -> None:
    """Encode the gates ``gate_indices`` of ``compiled``, in that order.

    ``slot_vars`` maps each slot to a solver literal (0 = none yet); it
    must already hold every fanin a listed gate reads that no earlier
    listed gate drives.  Each gate's output gets a fresh variable,
    allocated just before the gate's own XOR-chain variables and
    written back into ``slot_vars``, so the numbering is a
    deterministic function of ``compiled`` and ``gate_indices``.
    """
    gate_types = compiled.gate_types
    gate_out = compiled.gate_output_slots
    gate_fanins = compiled.gate_fanin_slots
    for i in gate_indices:
        out = slot_vars[gate_out[i]] = sink.new_var()
        ins = [slot_vars[s] for s in gate_fanins[i]]
        encode_gate(sink, gate_types[i], out, ins)
