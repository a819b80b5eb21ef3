"""Pinned synthesis of conditional netlists on :mod:`repro.circuit.opt`.

The paper synthesizes each conditional netlist with Design Compiler
"to remove any redundant logic" (Algorithm 1, line 4).  Here that step
is the repository's one optimizer: pinned inputs are tied to constants
and :func:`~repro.circuit.opt.optimize_compiled` runs its pipeline
(constant sweep, BUF/NOT chains, strash, cone-of-influence pruning) to
a fixpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Mapping

from repro.circuit.gates import GateType
from repro.circuit.netlist import Gate, Netlist, fresh_net_namer
from repro.circuit.opt import optimize_compiled


@dataclass
class SynthesisResult:
    """Output of :func:`synthesize` plus before/after statistics."""

    netlist: Netlist
    gates_before: int
    gates_after: int
    elapsed_seconds: float

    @property
    def reduction(self) -> float:
        """Fraction of gates removed (0.0 if the netlist was empty)."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before


def synthesize(
    netlist: Netlist,
    pin: Mapping[str, bool] | None = None,
) -> SynthesisResult:
    """Optimize ``netlist``, optionally under input pins.

    Every gate reading a pinned input reads a CONST net instead, then
    the full ``circuit.opt`` pipeline folds what the pins force.  The
    interface is preserved: pinned inputs stay in the port list, so a
    conditional netlist lines up with the oracle net-for-net.

    >>> from repro.circuit.gates import GateType
    >>> from repro.circuit.netlist import Netlist
    >>> n = Netlist("and2")
    >>> _ = n.add_inputs(["a", "b"])
    >>> _ = n.add_gate("y", GateType.AND, ["a", "b"])
    >>> n.set_outputs(["y"])
    >>> result = synthesize(n, pin={"a": False})
    >>> result.netlist.gates["y"].gtype.name, result.netlist.inputs
    ('CONST0', ['a', 'b'])
    """
    start = time.perf_counter()
    pin = pin or {}
    for net in pin:
        if net not in netlist.inputs:
            raise ValueError(f"pinned net {net!r} is not a primary input")
    tied = netlist.copy()
    namer = fresh_net_namer(netlist, "pin_")
    tie = {
        net: tied.add_gate(
            namer(), GateType.CONST1 if value else GateType.CONST0, []
        )
        for net, value in pin.items()
    }
    for out, gate in netlist.gates.items():
        if any(src in tie for src in gate.inputs):
            tied.gates[out] = Gate(
                out, gate.gtype, tuple(tie.get(s, s) for s in gate.inputs)
            )
    compiled = optimize_compiled(tied.compile()).compiled
    result = Netlist(
        name=netlist.name,
        inputs=list(compiled.inputs),
        outputs=list(compiled.outputs),
        gates={gate.output: gate for gate in compiled.gates},
    )
    return SynthesisResult(
        netlist=result,
        gates_before=netlist.num_gates,
        gates_after=result.num_gates,
        elapsed_seconds=time.perf_counter() - start,
    )
