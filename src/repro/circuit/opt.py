"""Structural optimization passes over the compiled circuit IR.

Every hot path — big-int simulation, numpy lanes, Tseitin encoding,
:func:`~repro.attacks.sat_attack.build_miter_encoding`'s double cone —
pays for every structural gate it is handed, including buffers,
constants, duplicated subtrees and logic outside any output cone.  The
locking fabrics themselves are full of exactly this redundancy
(SARLock/Anti-SAT comparator trees, LUT MUX planes, the match-plane
fabric's duplicated XNOR taps and tied-input inverters), and *Modeling
Techniques for Logic Locking* (arxiv 2009.10131) shows that what you
hand the solver matters as much as the solver.  This module removes the
redundancy once, structurally, before any consumer pays for it.

The pass contract
-----------------

Each pass maps a :class:`~repro.circuit.compiled.CompiledCircuit` to a
smaller, *parity-identical* one:

* the primary-input list (names and order) is preserved exactly;
* the primary-output list (names and order) is preserved exactly, and
  every output computes bit-for-bit the same function of the inputs;
* every surviving internal value is tracked in a **slot-provenance
  map**: original slot -> ``("slot", new_slot)`` when the value lives
  on in the optimized circuit, ``("const", b)`` when the pass proved it
  constant, ``("dropped",)`` when cone pruning removed it.  The
  provenance invariant — ``orig_values[s] == new_values[new_slot]`` for
  every mapped slot under every stimulus — is property-tested in
  ``tests/circuit/test_opt.py``.

Passes (applied in this order by the pipeline):

``sweep``
    Constant propagation and algebraic sweeping: constants fold through
    every gate type, identity/absorbing operands are stripped,
    duplicate and complementary fanins cancel (``AND(x, !x) -> 0``,
    ``XOR(x, x) -> 0``), MUXes strength-reduce where no inverter must
    be invented (constant select, equal branches, ``MUX(s, 1, d)``,
    ``MUX(s, d, 0)``, ``MUX(s, !d, d) -> XOR``).
``chains``
    BUF/NOT chain collapse.  The IR has no fanin inversion flags, so
    this is an alias rewrite: ``BUF(x)`` and single-input
    AND/OR/XOR alias to their fanin, ``NOT(NOT(x))`` aliases to ``x``,
    single-input NAND/NOR/XNOR rewrite to ``NOT``.
``strash``
    Structural hashing: gates with an identical ``(type, fanins)``
    signature merge into the first occurrence; fanins of commutative
    gates are sorted first so operand order never blocks a merge.
``coi``
    Cone-of-influence pruning: gates outside the transitive fanin of
    the primary outputs are dropped.

The pipeline (:func:`optimize_compiled`) iterates the pass list to a
fixpoint, which is also what makes it idempotent:
``optimize(optimize(c))`` compiles to exactly ``optimize(c)``.

The ``opt`` lever
-----------------

One process-wide lever (declared in :mod:`repro.levers`, like
``lanes``) resolved through :func:`resolve_opt`::

    opt="off"    # identity: byte-identical to the unoptimized path
    opt="light"  # linear passes only: sweep + chains + coi
    opt="full"   # light + structural hashing
    opt="auto"   # the default: currently resolves to "full"

``None`` means the process default, the ``REPRO_OPT`` environment
variable (which the CLI's ``--opt`` flag sets, so runner worker
processes inherit the choice).  Unlike ``lanes`` — pure wall-clock,
never cache identity — ``opt`` *is* part of result-cache identity:
optimized artifacts report different structural counts, so scenario
cells and shard chunks hash the resolved level, and encoding caches
key on the **optimized** circuit's content hash.

>>> from repro.circuit.netlist import Netlist
>>> from repro.circuit.gates import GateType
>>> netlist = Netlist("redundant")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_input("b")
>>> _ = netlist.add_gate("ab1", GateType.AND, ["a", "b"])
>>> _ = netlist.add_gate("ab2", GateType.AND, ["b", "a"])   # duplicate
>>> _ = netlist.add_gate("buf", GateType.BUF, ["ab1"])      # wire
>>> _ = netlist.add_gate("po", GateType.XOR, ["buf", "ab2"])
>>> _ = netlist.add_gate("dead", GateType.OR, ["a", "b"])   # no cone
>>> netlist.set_outputs(["po"])
>>> opt = optimize_compiled(netlist.compile(), "full")
>>> (opt.gates_before, opt.gates_after)
(5, 1)
>>> opt.compiled.truth_table_words() == netlist.compile().truth_table_words()
True
>>> opt.slot_image(netlist.compile().slot_of["po"])
('const', 0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuit.gates import GateType
from repro.levers import OPT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.circuit.compiled import CompiledCircuit
    from repro.circuit.netlist import Netlist

#: Concrete optimization levels, weakest to strongest.  ``"auto"`` is
#: accepted everywhere the lever is and resolves through
#: :func:`resolve_opt`.
OPT_LEVELS = ("off", "light", "full")

#: Pass sequence per concrete level.
_PIPELINES = {
    "off": (),
    "light": ("sweep", "chains", "coi"),
    "full": ("sweep", "chains", "strash", "coi"),
}

#: Fixpoint-iteration backstop.  Each round only ever shrinks the gate
#: list, so convergence is guaranteed; the cap just bounds the cost of
#: a hypothetical pathological circuit.
_MAX_ROUNDS = 8


def resolve_opt(opt: str | None = None) -> str:
    """Resolve an opt lever value to a concrete level.

    ``None`` means the process default (``REPRO_OPT``, else
    ``"auto"``); ``"auto"`` resolves to ``"full"`` (the lever's alias
    in :data:`repro.levers.OPT`).  The indirection exists so the policy
    can become shape-aware without touching any caller.

    >>> resolve_opt("off")
    'off'
    >>> resolve_opt("auto")
    'full'
    """
    return OPT.resolve(opt)


# ----------------------------------------------------------------------
# Result type
# ----------------------------------------------------------------------


@dataclass
class OptimizedCircuit:
    """A pass (or pipeline) result: smaller circuit + provenance.

    Attributes:
        source: The compiled circuit the pass ran on.
        compiled: The optimized compiled circuit.  Interface-identical
            to ``source`` (same input and output names, same order) and
            parity-identical on every output.
        provenance: Original slot -> ``("slot", new_slot)`` /
            ``("const", b)`` / ``("dropped",)`` (see the module
            docstring for the invariant).
        level: The concrete level or pass name that produced this.
        passes: Every pass application, in order (a fixpoint pipeline
            may list a pass more than once).
        stats: Gates removed per pass name, accumulated.
    """

    source: "CompiledCircuit"
    compiled: "CompiledCircuit"
    provenance: dict[int, tuple]
    level: str
    passes: tuple[str, ...]
    stats: dict[str, int]

    @property
    def gates_before(self) -> int:
        return self.source.num_gates

    @property
    def gates_after(self) -> int:
        return self.compiled.num_gates

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after

    def slot_image(self, slot: int) -> tuple:
        """Provenance entry of one original slot."""
        return self.provenance[slot]


def _identity(compiled: "CompiledCircuit", level: str) -> OptimizedCircuit:
    provenance = {s: ("slot", s) for s in range(compiled.num_slots)}
    return OptimizedCircuit(
        source=compiled,
        compiled=compiled,
        provenance=provenance,
        level=level,
        passes=(),
        stats={},
    )


# ----------------------------------------------------------------------
# Pass machinery
#
# A pass walks the gates in compiled (topological) order maintaining a
# canonical value per original slot: ("slot", root) where root is an
# original slot whose gate survives the pass, or ("const", b).  Gates
# are either kept (possibly with a rewritten type/fanins), aliased to
# an existing value, or folded to a constant.  Materialization turns
# the kept list back into a Netlist with the original interface.
# ----------------------------------------------------------------------

_AND_FAMILY = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)
_XOR_FAMILY = (GateType.XOR, GateType.XNOR)
_COMMUTATIVE = frozenset(
    (GateType.AND, GateType.OR, GateType.XOR,
     GateType.NAND, GateType.NOR, GateType.XNOR)
)


def _sweep_rules(compiled, canon, keep):
    """Constant propagation + algebraic sweeping (the ``sweep`` pass)."""
    inv_of: dict[int, int] = {}  # canonical root -> root of its complement

    def record_inverse(a: int, b: int) -> None:
        inv_of.setdefault(a, b)
        inv_of.setdefault(b, a)

    def keep_gate(out, gtype, vals):
        keep.append((out, gtype, tuple(vals)))
        canon[out] = ("slot", out)

    for gtype, out, fanins in zip(
        compiled.gate_types, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        vals = [canon[s] for s in fanins]
        if gtype is GateType.CONST0:
            canon[out] = ("const", 0)
            continue
        if gtype is GateType.CONST1:
            canon[out] = ("const", 1)
            continue
        if gtype in (GateType.BUF, GateType.NOT):
            (kind, payload) = vals[0]
            if kind == "const":
                bit = payload if gtype is GateType.BUF else 1 - payload
                canon[out] = ("const", bit)
            elif gtype is GateType.BUF:
                keep_gate(out, gtype, vals)
            else:
                keep_gate(out, gtype, vals)
                record_inverse(out, payload)
            continue
        if gtype is GateType.MUX:
            sel, d1, d0 = vals
            if sel == ("const", 1):
                canon[out] = d1
            elif sel == ("const", 0):
                canon[out] = d0
            elif d1 == d0:
                canon[out] = d1
            elif d1 == ("const", 1) and d0 == ("const", 0):
                canon[out] = sel
            elif d1 == ("const", 0) and d0 == ("const", 1):
                keep_gate(out, GateType.NOT, [sel])
                record_inverse(out, sel[1])
            elif d1 == ("const", 1):
                keep_gate(out, GateType.OR, [sel, d0])
            elif d0 == ("const", 0):
                keep_gate(out, GateType.AND, [sel, d1])
            elif (
                d1[0] == "slot"
                and d0[0] == "slot"
                and inv_of.get(d1[1]) == d0[1]
            ):
                # MUX(s, !x, x) == s XOR x
                keep_gate(out, GateType.XOR, [sel, d0])
            else:
                keep_gate(out, gtype, vals)
            continue
        if gtype in _AND_FAMILY:
            conjunctive = gtype in (GateType.AND, GateType.NAND)
            inverted = gtype in (GateType.NAND, GateType.NOR)
            absorbing = 0 if conjunctive else 1
            live: list[tuple] = []
            seen: set[int] = set()
            forced = False
            for val in vals:
                kind, payload = val
                if kind == "const":
                    if payload == absorbing:
                        forced = True
                        break
                    continue  # identity constant
                if payload in seen:
                    continue  # idempotent duplicate
                if inv_of.get(payload) in seen:
                    forced = True  # x op !x forces the absorbing value
                    break
                seen.add(payload)
                live.append(val)
            if forced:
                canon[out] = ("const", absorbing ^ (1 if inverted else 0))
            elif not live:
                canon[out] = ("const", (1 - absorbing) ^ (1 if inverted else 0))
            elif len(live) == 1:
                if inverted:
                    keep_gate(out, GateType.NOT, live)
                    record_inverse(out, live[0][1])
                else:
                    canon[out] = live[0]
            else:
                keep_gate(out, gtype, live)
            continue
        # XOR family: fold constants and cancel pairs mod 2.
        parity = 1 if gtype is GateType.XNOR else 0
        counts: dict[int, int] = {}
        order: list[int] = []
        for val in vals:
            kind, payload = val
            if kind == "const":
                parity ^= payload
                continue
            if payload not in counts:
                counts[payload] = 0
                order.append(payload)
            counts[payload] ^= 1  # pairs cancel
        live_roots = [r for r in order if counts[r]]
        # Complementary pairs: x ^ !x == 1.
        alive = set(live_roots)
        for r in list(live_roots):
            mate = inv_of.get(r)
            if mate is not None and mate in alive and r in alive and mate != r:
                alive.discard(r)
                alive.discard(mate)
                parity ^= 1
        live_roots = [r for r in live_roots if r in alive]
        if not live_roots:
            canon[out] = ("const", parity)
        elif len(live_roots) == 1:
            if parity:
                keep_gate(out, GateType.NOT, [("slot", live_roots[0])])
                record_inverse(out, live_roots[0])
            else:
                canon[out] = ("slot", live_roots[0])
        else:
            keep_gate(
                out,
                GateType.XNOR if parity else GateType.XOR,
                [("slot", r) for r in live_roots],
            )


def _chain_rules(compiled, canon, keep):
    """BUF/NOT chain collapse via alias rewriting (the ``chains`` pass)."""
    not_fanin: dict[int, int] = {}  # kept NOT's out slot -> its fanin root

    for gtype, out, fanins in zip(
        compiled.gate_types, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        vals = [canon[s] for s in fanins]
        effective = gtype
        if len(fanins) == 1 and gtype in _COMMUTATIVE:
            # Unary n-ary gates: AND/OR/XOR(x) == BUF(x),
            # NAND/NOR/XNOR(x) == NOT(x) — mirror the compiled lowering.
            effective = (
                GateType.BUF
                if gtype in (GateType.AND, GateType.OR, GateType.XOR)
                else GateType.NOT
            )
        if effective is GateType.BUF:
            (kind, payload) = vals[0]
            canon[out] = vals[0] if kind == "slot" else ("const", payload)
            continue
        if effective is GateType.NOT:
            (kind, payload) = vals[0]
            if kind == "const":
                canon[out] = ("const", 1 - payload)
                continue
            root = payload
            if root in not_fanin:  # NOT(NOT(x)) -> x
                canon[out] = ("slot", not_fanin[root])
                continue
            keep.append((out, GateType.NOT, (("slot", root),)))
            canon[out] = ("slot", out)
            not_fanin[out] = root
            continue
        keep.append((out, gtype, tuple(vals)))
        canon[out] = ("slot", out)


def _strash_rules(compiled, canon, keep):
    """Merge structurally identical gates (the ``strash`` pass)."""
    table: dict[tuple, int] = {}

    for gtype, out, fanins in zip(
        compiled.gate_types, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        vals = tuple(canon[s] for s in fanins)
        sig = tuple(sorted(vals)) if gtype in _COMMUTATIVE else vals
        key = (gtype.value, sig)
        existing = table.get(key)
        if existing is not None:
            canon[out] = ("slot", existing)
            continue
        table[key] = out
        keep.append((out, gtype, vals))
        canon[out] = ("slot", out)


def _coi_rules(compiled, canon, keep):
    """Identity rewrite; pruning happens in materialization."""
    for gtype, out, fanins in zip(
        compiled.gate_types, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        keep.append((out, gtype, tuple(canon[s] for s in fanins)))
        canon[out] = ("slot", out)


_PASS_RULES = {
    "sweep": _sweep_rules,
    "chains": _chain_rules,
    "strash": _strash_rules,
    "coi": _coi_rules,
}

#: Pass names accepted by :func:`run_pass`, in pipeline order.
PASS_NAMES = ("sweep", "chains", "strash", "coi")


def _materialize(
    compiled: "CompiledCircuit",
    canon: list[tuple],
    keep: list[tuple],
    prune: bool,
) -> "Netlist":
    """Rebuild a Netlist from the kept gates, preserving the interface."""
    from repro.circuit.netlist import Netlist

    names = compiled.net_names
    slot_of = compiled.slot_of

    if prune:
        kept_by_out = {out: (gtype, vals) for out, gtype, vals in keep}
        needed: set[int] = set()
        stack = []
        for po in compiled.outputs:
            val = canon[slot_of[po]]
            if val[0] == "slot":
                stack.append(val[1])
        while stack:
            root = stack.pop()
            if root in needed:
                continue
            needed.add(root)
            entry = kept_by_out.get(root)
            if entry is None:
                continue  # primary input
            for kind, payload in entry[1]:
                if kind == "slot":
                    stack.append(payload)
        keep = [item for item in keep if item[0] in needed]

    netlist = Netlist(name=compiled.name)
    for net in compiled.inputs:
        netlist.add_input(net)

    used = set(compiled.inputs)
    used.update(names[out] for out, _, _ in keep)
    used.update(compiled.outputs)

    const_nets: dict[int, str] = {}

    def const_net(bit: int) -> str:
        net = const_nets.get(bit)
        if net is None:
            net = f"_opt_const{bit}"
            while net in used:
                net += "_"
            used.add(net)
            netlist.add_gate(
                net, GateType.CONST1 if bit else GateType.CONST0, []
            )
            const_nets[bit] = net
        return net

    def val_net(val: tuple) -> str:
        kind, payload = val
        if kind == "const":
            return const_net(payload)
        return names[payload]

    for out, gtype, vals in keep:
        netlist.add_gate(names[out], gtype, [val_net(v) for v in vals])

    for po in compiled.outputs:
        if netlist.is_driven(po):
            continue
        val = canon[slot_of[po]]
        if val[0] == "const":
            netlist.add_gate(
                po, GateType.CONST1 if val[1] else GateType.CONST0, []
            )
        else:
            netlist.add_gate(po, GateType.BUF, [names[val[1]]])
    netlist.set_outputs(compiled.outputs)
    return netlist


def _run_pass(compiled: "CompiledCircuit", name: str) -> OptimizedCircuit:
    """Apply one named pass; see :data:`PASS_NAMES`."""
    rules = _PASS_RULES[name]
    canon: list[tuple] = [("slot", s) for s in range(compiled.num_slots)]
    keep: list[tuple] = []
    rules(compiled, canon, keep)
    netlist = _materialize(compiled, canon, keep, prune=(name == "coi"))
    optimized = netlist.compile()
    new_slot_of = optimized.slot_of
    names = compiled.net_names
    provenance: dict[int, tuple] = {}
    for s in range(compiled.num_slots):
        kind, payload = canon[s]
        if kind == "const":
            provenance[s] = ("const", payload)
            continue
        new = new_slot_of.get(names[payload])
        provenance[s] = ("slot", new) if new is not None else ("dropped",)
    return OptimizedCircuit(
        source=compiled,
        compiled=optimized,
        provenance=provenance,
        level=name,
        passes=(name,),
        stats={name: compiled.num_gates - optimized.num_gates},
    )


def run_pass(compiled: "CompiledCircuit", name: str) -> OptimizedCircuit:
    """Apply a single pass by name (``sweep``/``chains``/``strash``/``coi``).

    Mostly a testing and inspection entry point; production callers use
    :func:`optimize_compiled` / :meth:`CompiledCircuit.optimized`.
    """
    if name not in _PASS_RULES:
        raise ValueError(
            f"unknown pass {name!r} (choose from {PASS_NAMES})"
        )
    return _run_pass(compiled, name)


def _compose(
    first: dict[int, tuple], second: dict[int, tuple]
) -> dict[int, tuple]:
    """Provenance of pass B after pass A, as one original->final map."""
    out: dict[int, tuple] = {}
    for slot, val in first.items():
        if val[0] == "slot":
            out[slot] = second[val[1]]
        else:
            out[slot] = val
    return out


def optimize_compiled(
    compiled: "CompiledCircuit", level: str | None = None
) -> OptimizedCircuit:
    """Run the optimization pipeline for ``level`` to a fixpoint.

    ``level`` is an opt lever value (``None`` -> process default,
    ``"auto"`` -> the full pipeline).  Passes run in pipeline order,
    repeating until a whole round removes nothing (each pass can expose
    work for the next: a strash merge creates the tied fanins the sweep
    folds).  The result's :attr:`OptimizedCircuit.provenance` composes
    across every application.
    """
    resolved = resolve_opt(level)
    if resolved == "off" or compiled.num_gates == 0:
        return _identity(compiled, resolved)
    pipeline = _PIPELINES[resolved]
    current = compiled
    provenance = {s: ("slot", s) for s in range(compiled.num_slots)}
    applied: list[str] = []
    stats: dict[str, int] = {}
    for _ in range(_MAX_ROUNDS):
        before = current
        for name in pipeline:
            step = _run_pass(current, name)
            provenance = _compose(provenance, step.provenance)
            applied.append(name)
            stats[name] = stats.get(name, 0) + step.stats[name]
            current = step.compiled
        if current == before:
            break
    return OptimizedCircuit(
        source=compiled,
        compiled=current,
        provenance=provenance,
        level=resolved,
        passes=tuple(applied),
        stats=stats,
    )
