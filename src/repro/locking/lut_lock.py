"""LUT-based insertion locking [Chowdhury et al., ISCAS'21].

A two-stage look-up-table module replaces a small subcircuit: each
stage-1 LUT absorbs one fanin gate of a chosen target gate, and the
stage-2 LUT absorbs the target gate itself.  Every LUT is widened with
padding inputs (primary inputs the original gate ignored), so the key —
the concatenated LUT truth tables — spans a function space exponentially
larger than the original gates.  The correct key programs each LUT to
its original gate function (padding ignored), making the scheme correct
by construction.

This is the second category of SAT-attack countermeasure the paper
discusses: it does not inflate ``#DIP`` much, but each miter iteration
must reason through the LUT decoders, so per-DIP solve time explodes.

The paper inserts a "14-input 2-stage LUT module ... equating to a key
size of 156".  That exact bit count is not derivable from the prose;
:meth:`LutModuleSpec.paper_scale` is the closest clean realization
(two 6-input stage-1 LUTs + one 5-input stage-2 LUT = 160 key bits,
~14 distinct source nets).  Smaller presets keep pure-Python SAT
attacks tractable in tests and benchmarks.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.circuit.analysis import fanin_cone, fanout_cone
from repro.circuit.gates import GateType, eval_gate_const
from repro.circuit.netlist import Gate, Netlist, fresh_net_namer
from repro.locking.base import LockedCircuit, LockingError, fresh_key_names


@dataclass(frozen=True)
class LutModuleSpec:
    """Shape of the two-stage LUT module.

    Attributes:
        stage1_width: Inputs per stage-1 LUT.
        num_stage1: How many fanin gates become stage-1 LUTs.
        stage2_width: Inputs of the stage-2 LUT (>= target-gate fanin).
    """

    stage1_width: int = 4
    num_stage1: int = 2
    stage2_width: int = 4
    shared_padding: bool = True

    def __post_init__(self) -> None:
        if self.stage1_width < 1 or self.stage2_width < 1:
            raise ValueError("LUT widths must be positive")
        if self.num_stage1 < 0:
            raise ValueError("num_stage1 must be non-negative")
        if self.num_stage1 > self.stage2_width:
            raise ValueError("stage-1 outputs must fit into the stage-2 LUT")
        if self.stage1_width > 8 or self.stage2_width > 8:
            raise ValueError("LUT wider than 8 inputs: decoder would be huge")

    @property
    def key_bits(self) -> int:
        return self.num_stage1 * (1 << self.stage1_width) + (1 << self.stage2_width)

    @classmethod
    def coerce(cls, spec: "str | Mapping | LutModuleSpec") -> "LutModuleSpec":
        """A spec from a preset name, a field mapping or an instance.

        Presets (``tiny`` | ``small`` | ``paper``) are the one roster
        behind every spec argument; a miss raises ``ValueError`` with
        the known names.  Drivers coerce before hashing.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, Mapping):
            return cls(**spec)
        presets = {
            "tiny": cls.tiny,
            "small": cls.small,
            "paper": cls.paper_scale,
        }
        try:
            return presets[spec]()
        except KeyError:
            known = ", ".join(sorted(presets))
            raise ValueError(
                f"unknown LUT spec {spec!r} (known: {known})"
            ) from None

    @classmethod
    def tiny(cls) -> "LutModuleSpec":
        """2x 3-LUT + 3-LUT = 24 key bits; for unit tests."""
        return cls(stage1_width=3, num_stage1=2, stage2_width=3)

    @classmethod
    def small(cls) -> "LutModuleSpec":
        """2x 4-LUT + 4-LUT = 48 key bits; benchmark default."""
        return cls(stage1_width=4, num_stage1=2, stage2_width=4)

    @classmethod
    def paper_scale(cls) -> "LutModuleSpec":
        """2x 6-LUT + 5-LUT = 160 key bits (paper: "key size of 156")."""
        return cls(stage1_width=6, num_stage1=2, stage2_width=5)


def _build_lut(
    netlist: Netlist,
    out_net: str,
    input_nets: list[str],
    key_nets: list[str],
    namer,
) -> None:
    """Emit a LUT: ``out = OR_j (minterm_j(inputs) AND key_j)``.

    ``input_nets[m]`` is bit ``m`` (LSB) of the truth-table index.
    """
    width = len(input_nets)
    if len(key_nets) != (1 << width):
        raise ValueError("need 2^width key bits")
    inverted: dict[str, str] = {}
    for net in input_nets:
        if net not in inverted:
            inv = namer()
            netlist.add_gate(inv, GateType.NOT, [net])
            inverted[net] = inv
    minterms = []
    for j in range(1 << width):
        lits = [
            net if (j >> m) & 1 else inverted[net]
            for m, net in enumerate(input_nets)
        ]
        term = namer()
        netlist.add_gate(term, GateType.AND, lits + [key_nets[j]])
        minterms.append(term)
    netlist.add_gate(out_net, GateType.OR, minterms)


def _gate_truth_table(gate: Gate, width: int) -> list[int]:
    """Truth table of ``gate`` widened to ``width`` inputs (padding ignored)."""
    arity = len(gate.inputs)
    table = []
    for j in range(1 << width):
        bits = [(j >> m) & 1 for m in range(arity)]
        table.append(eval_gate_const(gate.gtype, bits))
    return table


def _pick_padding(
    netlist: Netlist,
    needed: int,
    exclude: set[str],
    forbidden: set[str],
    rng: random.Random,
    preferred: list[str] | None = None,
) -> list[str]:
    """Choose padding nets: the shared pool first, then PIs, then nets
    outside ``forbidden``."""
    pool = [n for n in (preferred or []) if n not in exclude]
    others = [
        n for n in netlist.inputs if n not in exclude and n not in set(pool)
    ]
    rng.shuffle(others)
    pool += others
    padding = pool[:needed]
    if len(padding) < needed:
        extra = [
            n
            for n in netlist.gates
            if n not in exclude and n not in forbidden
        ]
        rng.shuffle(extra)
        padding += extra[: needed - len(padding)]
    if len(padding) < needed:
        raise LockingError("not enough nets available for LUT padding")
    return padding


def _replace_gate_with_lut(
    netlist: Netlist,
    target: str,
    width: int,
    key_nets: list[str],
    namer,
    rng: random.Random,
    key_set: set[str],
    preferred_padding: list[str] | None = None,
) -> tuple[list[int], list[str]]:
    """Swap gate ``target`` for a ``width``-input LUT under the same name.

    Returns ``(correct_truth_table, lut_input_nets)``.
    """
    gate = netlist.gates.pop(target)
    if len(gate.inputs) > width:
        netlist.gates[target] = gate
        raise LockingError(
            f"gate {target!r} has {len(gate.inputs)} fanins > LUT width {width}"
        )
    # Padding must not depend on the target, or we would create a cycle.
    forbidden = fanout_cone(netlist, target) | {target}
    padding = _pick_padding(
        netlist,
        needed=width - len(gate.inputs),
        exclude=set(gate.inputs) | {target} | key_set,
        forbidden=forbidden,
        rng=rng,
        preferred=preferred_padding,
    )
    inputs = list(gate.inputs) + padding
    _build_lut(netlist, target, inputs, key_nets, namer)
    return _gate_truth_table(gate, width), inputs


def _candidate_targets(netlist: Netlist, spec: LutModuleSpec) -> list[str]:
    """Gates that can host the module: observable, enough suitable fanins."""
    observable: set[str] = set()
    for out in netlist.outputs:
        observable |= fanin_cone(netlist, out)
    candidates = []
    for net, gate in netlist.gates.items():
        if net not in observable:
            continue  # locking dead logic would corrupt nothing
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            continue
        if len(gate.inputs) > spec.stage2_width:
            continue
        fanin_gates = [
            src
            for src in dict.fromkeys(gate.inputs)
            if src in netlist.gates
            and len(netlist.gates[src].inputs) <= spec.stage1_width
            and netlist.gates[src].gtype
            not in (GateType.CONST0, GateType.CONST1)
        ]
        if len(fanin_gates) >= spec.num_stage1:
            candidates.append(net)
    return candidates


def lut_lock(
    netlist: Netlist,
    spec: LutModuleSpec | None = None,
    seed: int = 0,
    target: str | None = None,
) -> LockedCircuit:
    """Insert one two-stage LUT module; key = concatenated truth tables."""
    spec = spec or LutModuleSpec.small()
    rng = random.Random(seed)

    locked = netlist.copy(name=f"{netlist.name}_lutlock{spec.key_bits}")
    if target is None:
        candidates = _candidate_targets(locked, spec)
        if not candidates:
            raise LockingError(
                f"no gate can host a {spec.num_stage1}x{spec.stage1_width}"
                f"+{spec.stage2_width} LUT module"
            )
        target = rng.choice(sorted(candidates))
    elif target not in locked.gates:
        raise LockingError(f"target {target!r} is not a gate")

    key_names = fresh_key_names(locked, spec.key_bits)
    locked.add_inputs(key_names)
    namer = fresh_net_namer(locked, "lut_")

    target_gate = locked.gates[target]
    fanin_gates = [
        src
        for src in dict.fromkeys(target_gate.inputs)
        if src in locked.gates
        and src != target
        and len(locked.gates[src].inputs) <= spec.stage1_width
        and locked.gates[src].gtype not in (GateType.CONST0, GateType.CONST1)
    ]
    if len(fanin_gates) < spec.num_stage1:
        raise LockingError(
            f"target {target!r} has only {len(fanin_gates)} suitable fanin "
            f"gates, need {spec.num_stage1}"
        )
    stage1_targets = fanin_gates[: spec.num_stage1]

    # A shared padding pool concentrates the module's support on a few
    # primary inputs (the paper's module has ~14 distinct sources), so
    # the splitting heuristic can hit every LUT decoder at once.
    shared_pool: list[str] | None = None
    if spec.shared_padding:
        shared_pool = [n for n in locked.inputs if n not in set(key_names)]
        rng.shuffle(shared_pool)
        shared_pool = shared_pool[: max(spec.stage1_width, spec.stage2_width)]

    correct_bits: list[int] = []
    module_inputs: set[str] = set()
    cursor = 0
    for s1 in stage1_targets:
        key_slice = key_names[cursor : cursor + (1 << spec.stage1_width)]
        cursor += 1 << spec.stage1_width
        table, inputs = _replace_gate_with_lut(
            locked, s1, spec.stage1_width, key_slice, namer, rng,
            set(key_names), shared_pool,
        )
        correct_bits.extend(table)
        module_inputs.update(inputs)

    key_slice = key_names[cursor : cursor + (1 << spec.stage2_width)]
    table, inputs = _replace_gate_with_lut(
        locked, target, spec.stage2_width, key_slice, namer, rng,
        set(key_names), shared_pool,
    )
    correct_bits.extend(table)
    module_inputs.update(inputs)
    # Stage-2 reads the stage-1 LUT outputs, not raw sources.
    module_inputs -= set(stage1_targets)

    locked.validate()
    return LockedCircuit(
        netlist=locked,
        key_inputs=key_names,
        correct_key=tuple(correct_bits),
        original_inputs=list(netlist.inputs),
        scheme="lut",
        meta={
            "spec": spec,
            "target": target,
            "stage1_targets": stage1_targets,
            "module_source_nets": sorted(module_inputs),
        },
    )
