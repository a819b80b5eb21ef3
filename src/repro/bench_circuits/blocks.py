"""Reusable word-level building blocks.

Each ``build_*`` helper appends gates to an existing netlist under a
name prefix and returns the nets carrying its results, so generators
can assemble datapaths the way RTL elaboration would.
"""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist


class BlockBuilder:
    """Names and appends gates for one functional block."""

    def __init__(self, netlist: Netlist, prefix: str):
        self.netlist = netlist
        self.prefix = prefix
        self._counter = 0

    def fresh(self, hint: str = "n") -> str:
        name = f"{self.prefix}_{hint}{self._counter}"
        self._counter += 1
        return name

    def gate(self, gtype: GateType, ins: list[str], hint: str = "n") -> str:
        out = self.fresh(hint)
        self.netlist.add_gate(out, gtype, ins)
        return out

    # ------------------------------------------------------------------
    # Bit-level primitives
    # ------------------------------------------------------------------
    def full_adder(self, a: str, b: str, cin: str) -> tuple[str, str]:
        """Returns (sum, carry-out)."""
        axb = self.gate(GateType.XOR, [a, b], "fx")
        s = self.gate(GateType.XOR, [axb, cin], "fs")
        g1 = self.gate(GateType.AND, [a, b], "fg")
        g2 = self.gate(GateType.AND, [axb, cin], "fh")
        cout = self.gate(GateType.OR, [g1, g2], "fc")
        return s, cout

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        return (
            self.gate(GateType.XOR, [a, b], "hs"),
            self.gate(GateType.AND, [a, b], "hc"),
        )

    def mux2(self, sel: str, d1: str, d0: str) -> str:
        return self.gate(GateType.MUX, [sel, d1, d0], "mx")

    # ------------------------------------------------------------------
    # Word-level blocks
    # ------------------------------------------------------------------
    def ripple_adder(
        self, a: list[str], b: list[str], cin: str
    ) -> tuple[list[str], str]:
        """Word addition; a[0] is the LSB.  Returns (sum_bits, carry_out)."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        sums = []
        carry = cin
        for bit_a, bit_b in zip(a, b):
            s, carry = self.full_adder(bit_a, bit_b, carry)
            sums.append(s)
        return sums, carry

    def word_op(self, gtype: GateType, a: list[str], b: list[str]) -> list[str]:
        """Bitwise two-operand word operation."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        return [self.gate(gtype, [x, y], "w") for x, y in zip(a, b)]

    def word_not(self, a: list[str]) -> list[str]:
        return [self.gate(GateType.NOT, [x], "wn") for x in a]

    def reduce(self, gtype: GateType, nets: list[str], fan: int = 2) -> str:
        """Balanced reduction tree (e.g. wide AND/OR/XOR)."""
        if not nets:
            raise ValueError("cannot reduce an empty net list")
        layer = list(nets)
        while len(layer) > 1:
            next_layer = []
            for start in range(0, len(layer), fan):
                chunk = layer[start : start + fan]
                if len(chunk) == 1:
                    next_layer.append(chunk[0])
                else:
                    next_layer.append(self.gate(gtype, chunk, "rd"))
            layer = next_layer
        return layer[0]

    def parity(self, nets: list[str]) -> str:
        return self.reduce(GateType.XOR, nets)

    def equality(self, a: list[str], b: list[str]) -> str:
        """1 iff the words are equal."""
        eqs = self.word_op(GateType.XNOR, a, b)
        return self.reduce(GateType.AND, eqs)

    def less_than(self, a: list[str], b: list[str]) -> str:
        """Unsigned a < b (a[0] is the LSB), via borrow ripple."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        borrow: str | None = None
        for bit_a, bit_b in zip(a, b):
            na = self.gate(GateType.NOT, [bit_a], "lt")
            lt = self.gate(GateType.AND, [na, bit_b], "lt")
            eq = self.gate(GateType.XNOR, [bit_a, bit_b], "lt")
            if borrow is None:
                borrow = lt
            else:
                keep = self.gate(GateType.AND, [eq, borrow], "lt")
                borrow = self.gate(GateType.OR, [lt, keep], "lt")
        assert borrow is not None
        return borrow

    def decoder(self, sel: list[str]) -> list[str]:
        """One-hot decode: returns 2^len(sel) nets (index LSB-first)."""
        inverted = self.word_not(sel)
        outs = []
        for index in range(1 << len(sel)):
            lits = [
                sel[j] if (index >> j) & 1 else inverted[j]
                for j in range(len(sel))
            ]
            outs.append(
                lits[0]
                if len(lits) == 1
                else self.gate(GateType.AND, lits, "dc")
            )
        return outs

    def priority_encoder(self, requests: list[str]) -> list[str]:
        """Grant the lowest-index active request (one-hot grants)."""
        grants = []
        blocked: str | None = None
        for req in requests:
            if blocked is None:
                grants.append(req)
                blocked = req
            else:
                nb = self.gate(GateType.NOT, [blocked], "pe")
                grants.append(self.gate(GateType.AND, [req, nb], "pe"))
                blocked = self.gate(GateType.OR, [blocked, req], "pe")
        return grants
