"""Cell library / area estimation tests."""

import pytest

from repro.bench_circuits.generators import ripple_carry_adder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.synth.library import (
    Cell,
    CellLibrary,
    NANGATE45ish,
    estimate_area,
)


class TestLibrary:
    def test_lookup(self):
        cell = NANGATE45ish.lookup(GateType.NAND, 2)
        assert cell is not None
        assert cell.name == "NAND2_X1"

    def test_max_arity(self):
        assert NANGATE45ish.max_arity(GateType.AND) == 4
        assert NANGATE45ish.max_arity(GateType.MUX) == 3

    def test_missing_cell_returns_none(self):
        assert NANGATE45ish.lookup(GateType.XOR, 7) is None

    def test_inverter_cheapest(self):
        inv = NANGATE45ish.lookup(GateType.NOT, 1).area
        for cell in NANGATE45ish.cells:
            if cell.gtype not in (GateType.CONST0, GateType.CONST1):
                assert cell.area >= inv


class TestEstimates:
    def test_area_positive_and_monotone_in_size(self):
        small = ripple_carry_adder(4)
        big = ripple_carry_adder(16)
        assert 0 < estimate_area(small) < estimate_area(big)

    def test_wide_gates_are_decomposed_not_rejected(self):
        n = Netlist()
        n.add_inputs([f"i{k}" for k in range(12)])
        n.add_gate("y", GateType.AND, [f"i{k}" for k in range(12)])
        n.set_outputs(["y"])
        assert estimate_area(n) > 0

    def test_empty_circuit(self):
        n = Netlist()
        n.add_input("a")
        n.set_outputs(["a"])
        assert estimate_area(n) == 0.0

    def test_custom_library_missing_cell_raises(self):
        tiny = CellLibrary(
            "tiny", [Cell("INV", GateType.NOT, 1, 1.0)]
        )
        n = Netlist()
        n.add_inputs(["a", "b"])
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.set_outputs(["y"])
        with pytest.raises(ValueError):
            estimate_area(n, tiny)
