"""Standard-cell library model and area estimation.

The paper maps its netlists onto the Nangate 45 nm Open Cell Library.
That library is not redistributable here, so :data:`NANGATE45ish`
carries cell areas (um^2) in the same ballpark as the public
datasheet.  Estimation first decomposes wide gates to each
cell's maximum arity, then sums the mapped cells' areas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.synth.mapping import decompose_to_max_arity


@dataclass(frozen=True)
class Cell:
    """One library cell: the gate function it implements, at what cost."""

    name: str
    gtype: GateType
    arity: int
    area: float  # um^2


@dataclass
class CellLibrary:
    """A set of cells indexed by (gate type, arity)."""

    name: str
    cells: list[Cell] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_key: dict[tuple[GateType, int], Cell] = {}
        for cell in self.cells:
            self._by_key[(cell.gtype, cell.arity)] = cell

    def lookup(self, gtype: GateType, arity: int) -> Cell | None:
        return self._by_key.get((gtype, arity))

    def max_arity(self, gtype: GateType) -> int:
        arities = [c.arity for c in self.cells if c.gtype == gtype]
        return max(arities) if arities else 0


def _nangate_cells() -> list[Cell]:
    cells = [
        Cell("INV_X1", GateType.NOT, 1, 0.532),
        Cell("BUF_X1", GateType.BUF, 1, 0.798),
        Cell("MUX2_X1", GateType.MUX, 3, 1.862),
        Cell("XOR2_X1", GateType.XOR, 2, 1.596),
        Cell("XNOR2_X1", GateType.XNOR, 2, 1.596),
        Cell("CONST0", GateType.CONST0, 0, 0.0),
        Cell("CONST1", GateType.CONST1, 0, 0.0),
    ]
    for arity, extra in ((2, 0.0), (3, 0.266), (4, 0.532)):
        cells += [
            Cell(f"NAND{arity}_X1", GateType.NAND, arity, 0.798 + extra),
            Cell(f"NOR{arity}_X1", GateType.NOR, arity, 0.798 + extra),
            Cell(f"AND{arity}_X1", GateType.AND, arity, 1.064 + extra),
            Cell(f"OR{arity}_X1", GateType.OR, arity, 1.064 + extra),
        ]
    return cells


NANGATE45ish = CellLibrary(name="nangate45ish", cells=_nangate_cells())


def _mapped(netlist: Netlist, library: CellLibrary) -> Netlist:
    """Decompose to the smallest max arity the library supports everywhere."""
    bound = min(
        (
            library.max_arity(t)
            for t in (GateType.AND, GateType.OR, GateType.XOR)
            if library.max_arity(t) >= 2
        ),
        default=2,
    )
    return decompose_to_max_arity(netlist, max_arity=bound)


def estimate_area(netlist: Netlist, library: CellLibrary = NANGATE45ish) -> float:
    """Total cell area (um^2) after arity-bounded decomposition."""
    mapped = _mapped(netlist, library)
    total = 0.0
    for gate in mapped.gates.values():
        cell = library.lookup(gate.gtype, len(gate.inputs))
        if cell is None:
            cell = library.lookup(gate.gtype, library.max_arity(gate.gtype))
        if cell is None:
            raise ValueError(
                f"library {library.name} has no cell for {gate.gtype}"
            )
        total += cell.area
    return total
