"""Conditional netlist generation (Algorithm 1, line 4).

``generate_conditional_netlist`` pins the splitting inputs to their
constant pattern and synthesizes the result "to remove any redundant
logic".  The interface is preserved (pinned ports stay in the port
list) so the pinned SAT attack and the oracle line up net-for-net; the
reduction shows up purely as a smaller gate count — which is where the
paper's "smaller SAT instances to solve" advantage comes from.

This is the **reference arm** of the multi-key attack: it follows the
paper literally and serves as the parity baseline the sharded engine
(:mod:`repro.core.sharded`) is tested against.  The sharded hot path
never calls it — sub-spaces are selected there with solver assumptions
against one shared encoding instead of per-sub-space synthesis.  The
A2 ablation (``run_synthesis=False``) measures what this synthesis
step buys the reference arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.locking.base import LockedCircuit
from repro.synth.optimize import SynthesisResult, synthesize


@dataclass
class ConditionalNetlist:
    """A locked circuit specialized to one splitting assignment."""

    locked: LockedCircuit
    assignment: dict[str, bool]
    synthesis: SynthesisResult | None

    @property
    def gates_before(self) -> int:
        if self.synthesis is None:
            return self.locked.netlist.num_gates
        return self.synthesis.gates_before

    @property
    def gates_after(self) -> int:
        return self.locked.netlist.num_gates


def generate_conditional_netlist(
    locked: LockedCircuit,
    assignment: Mapping[str, bool],
    run_synthesis: bool = True,
) -> ConditionalNetlist:
    """Specialize ``locked`` to the input constants in ``assignment``.

    With ``run_synthesis=False`` the original netlist is kept — the
    A2 ablation measures what that costs the sub-attacks.
    """
    assignment = dict(assignment)
    for net in assignment:
        if net not in locked.original_inputs:
            raise ValueError(f"{net!r} is not an original primary input")

    if not run_synthesis:
        return ConditionalNetlist(
            locked=locked, assignment=assignment, synthesis=None
        )

    result = synthesize(locked.netlist, pin=assignment)
    specialized = LockedCircuit(
        netlist=result.netlist,
        key_inputs=list(locked.key_inputs),
        correct_key=locked.correct_key,
        original_inputs=list(locked.original_inputs),
        scheme=locked.scheme,
        meta={**locked.meta, "conditional_assignment": assignment},
    )
    return ConditionalNetlist(
        locked=specialized, assignment=assignment, synthesis=result
    )
