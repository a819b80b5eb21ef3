"""SAT-based combinational equivalence checking (CEC).

Builds the classic miter — two circuits sharing primary inputs, output
pairs XORed and ORed into one signal — and asks the SAT solver whether
that signal can be 1.  UNSAT proves functional equivalence; SAT yields
a counterexample input pattern.

Fig. 1(b) of the paper is verified this way: the MUX composition of
two "incorrect" keys must be equivalent to the original circuit.

``presim_width`` bolts a bit-parallel random-simulation prefilter onto
the SAT check: both circuits are swept over that many shared random
patterns through the lane-backend lever (:mod:`repro.circuit.lanes`),
and any mismatching lane is returned as a counterexample without ever
building the miter.  On real-circuit-scale inequivalent pairs the
prefilter answers in one vectorized sweep; equivalent pairs fall
through to the SAT proof unchanged.  It is off by default so existing
callers keep their exact solver statistics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.cnf import encode_compiled
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, NetlistError, fresh_net_namer
from repro.circuit.simulator import random_stimuli_words
from repro.sat import CNF
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


def build_miter(a: Netlist, b: Netlist, miter_output: str = "miter_out") -> Netlist:
    """Structural miter netlist: one output, 1 iff some output differs."""
    _check_interfaces(a, b)
    left = a.renamed("mA_", keep_inputs=a.inputs)
    right = b.renamed("mB_", keep_inputs=b.inputs)
    miter = left.merged_with(right, name=f"miter({a.name},{b.name})")
    namer = fresh_net_namer(miter, "mx_")
    diff_nets = []
    for out in a.outputs:
        diff = namer()
        miter.add_gate(diff, GateType.XOR, ["mA_" + out, "mB_" + out])
        diff_nets.append(diff)
    miter.add_gate(miter_output, GateType.OR, diff_nets)
    miter.set_outputs([miter_output])
    return miter


def _presimulate(
    a: Netlist, b: Netlist, width: int, seed: int
) -> EquivalenceResult | None:
    """Random-simulation counterexample search; ``None`` = no mismatch."""
    ca, cb = a.compile(), b.compile()
    stimuli = random_stimuli_words(ca.inputs, width, random.Random(seed))
    words_a = [stimuli[net] for net in ca.inputs]
    words_b = [stimuli[net] for net in cb.inputs]
    out_a = dict(zip(ca.outputs, ca.eval_outputs_wide(words_a, width)))
    out_b = dict(zip(cb.outputs, cb.eval_outputs_wide(words_b, width)))
    lane = None
    for net in ca.outputs:
        diff = out_a[net] ^ out_b[net]
        if diff:
            low = (diff & -diff).bit_length() - 1
            lane = low if lane is None else min(lane, low)
    if lane is None:
        return None
    return EquivalenceResult(
        equivalent=False,
        counterexample={
            net: (stimuli[net] >> lane) & 1 for net in ca.inputs
        },
        outputs_a={net: (out_a[net] >> lane) & 1 for net in ca.outputs},
        outputs_b={net: (out_b[net] >> lane) & 1 for net in ca.outputs},
    )


def check_equivalence(
    a: Netlist,
    b: Netlist,
    presim_width: int = 0,
    presim_seed: int = 0,
) -> EquivalenceResult:
    """Prove or refute functional equivalence of two netlists.

    The circuits must have identical input and output name sets; input
    order may differ.  ``presim_width > 0`` first sweeps that many
    shared random patterns through the lane lever (see the module
    docstring); a mismatch short-circuits the SAT proof and reports
    ``solver_stats=None``.
    """
    _check_interfaces(a, b)
    if presim_width > 0:
        refuted = _presimulate(a, b, presim_width, presim_seed)
        if refuted is not None:
            return refuted
    cnf = CNF()
    enc_a = encode_compiled(a.compile(), cnf)
    shared_inputs = {net: enc_a.var(net) for net in a.inputs}
    enc_b = encode_compiled(b.compile(), cnf, share=shared_inputs)

    # XOR each output pair, OR the XORs, assert the OR.
    diff_vars = []
    for out in a.outputs:
        diff = cnf.new_var()
        va, vb = enc_a.var(out), enc_b.var(out)
        cnf.add_clauses(
            [
                [-diff, va, vb],
                [-diff, -va, -vb],
                [diff, -va, vb],
                [diff, va, -vb],
            ]
        )
        diff_vars.append(diff)
    cnf.add_clause(diff_vars)

    solver = cnf.to_solver()
    if not solver.solve():
        return EquivalenceResult(
            equivalent=True, solver_stats=solver.stats.as_dict()
        )
    counterexample = {
        net: int(solver.model_value(enc_a.var(net)) or 0) for net in a.inputs
    }
    outputs_a = {
        net: int(solver.model_value(enc_a.var(net)) or 0) for net in a.outputs
    }
    outputs_b = {
        net: int(solver.model_value(enc_b.var(net)) or 0) for net in b.outputs
    }
    return EquivalenceResult(
        equivalent=False,
        counterexample=counterexample,
        outputs_a=outputs_a,
        outputs_b=outputs_b,
        solver_stats=solver.stats.as_dict(),
    )
