"""Structural optimization passes over the compiled circuit IR.

Every hot path — big-int simulation, Tseitin encoding,
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

One process-wide lever (declared in :mod:`repro.levers`) resolved
through :func:`resolve_opt`::

    opt="off"    # identity: byte-identical to the unoptimized path
    opt="light"  # linear passes only: sweep + chains + coi
    opt="full"   # light + structural hashing
    opt="auto"   # the default: currently resolves to "full"

``None`` means the process default, the ``REPRO_OPT`` environment
variable (which the CLI's ``--opt`` flag sets, so runner worker
processes inherit the choice).  ``opt`` is part of result-cache
identity: optimized artifacts report different structural counts, so
scenario cells and shard chunks hash the resolved level, and encoding
caches key on the **optimized** circuit's content hash.

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


def _identity(
    compiled: "CompiledCircuit",
    level: str,
    passes: tuple[str, ...] = (),
    stats: dict[str, int] | None = None,
) -> OptimizedCircuit:
    provenance = {s: ("slot", s) for s in range(compiled.num_slots)}
    return OptimizedCircuit(
        source=compiled,
        compiled=compiled,
        provenance=provenance,
        level=level,
        passes=passes,
        stats={} if stats is None else stats,
    )


# ----------------------------------------------------------------------
# Pass machinery
#
# A pass walks the gates in compiled (topological) order maintaining a
# canonical value per original slot: ("slot", root) where root is an
# original slot whose gate survives the pass, or ("const", b).  Gates
# are either kept (possibly with a rewritten type/fanins), aliased to
# an existing value, or folded to a constant.
#
# Passes hand each other slot arrays (:class:`_Slots`), not circuits.
# A pass that keeps every gate as it was changes nothing: it returns
# None and costs only its walk.  Otherwise :func:`_renumber` lays the
# kept gates out in the numbering ``Netlist.compile()`` would give the
# equivalent netlist — inputs, then kept gates in order with each
# ``_opt_const{b}`` net just before its first reader, then BUF/CONST
# drivers for undriven outputs — so the arrays, net names and content
# hash match a per-pass netlist round trip exactly.  The pipeline
# builds one CompiledCircuit from the final arrays, and none when no
# pass changed anything.
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
        vals = tuple([canon[s] for s in fanins])
        sig = tuple(sorted(vals)) if gtype in _COMMUTATIVE else vals
        key = (gtype.value, sig)
        existing = table.get(key)
        if existing is not None:
            canon[out] = ("slot", existing)
            continue
        table[key] = out
        keep.append((out, gtype, vals))
        canon[out] = ("slot", out)


#: Rewrite rules per pass; ``coi`` rewrites nothing and only prunes
#: (:func:`_output_cone`).
_PASS_RULES = {
    "sweep": _sweep_rules,
    "chains": _chain_rules,
    "strash": _strash_rules,
}

#: Pass names accepted by :func:`run_pass`, in pipeline order.
PASS_NAMES = ("sweep", "chains", "strash", "coi")


class _Slots:
    """A pass result as compiled-slot arrays, before any circuit exists.

    Carries exactly the attributes the pass rules and :func:`_renumber`
    read from a :class:`~repro.circuit.compiled.CompiledCircuit`, in the
    same numbering: inputs are slots ``0..n-1`` and gate ``i`` drives
    slot ``n + i``.
    """

    __slots__ = (
        "name",
        "inputs",
        "outputs",
        "net_names",
        "gate_types",
        "gate_output_slots",
        "gate_fanin_slots",
        "output_slots",
    )

    def __init__(self, source, net_names, gate_types, gate_fanin_slots,
                 output_slots):
        self.name = source.name
        self.inputs = source.inputs
        self.outputs = source.outputs
        self.net_names = tuple(net_names)
        self.gate_types = tuple(gate_types)
        self.gate_output_slots = tuple(
            range(len(source.inputs), len(net_names))
        )
        self.gate_fanin_slots = tuple(gate_fanin_slots)
        self.output_slots = tuple(output_slots)

    @property
    def num_slots(self) -> int:
        return len(self.net_names)

    @property
    def num_gates(self) -> int:
        return len(self.gate_types)

    def build(self) -> "CompiledCircuit":
        from repro.circuit.compiled import CompiledCircuit

        return CompiledCircuit.from_slots(
            self.name,
            self.inputs,
            self.outputs,
            self.net_names,
            self.gate_types,
            self.gate_fanin_slots,
            self.output_slots,
        )


def _output_cone(source, rows: list[tuple]) -> list[tuple]:
    """The ``coi`` pass: the rows in the primary outputs' transitive fanin.

    Its canon is the identity, so one reverse sweep over the gates
    marks the cone.
    """
    needed = [False] * source.num_slots
    for slot in source.output_slots:
        needed[slot] = True
    for out, fanins in zip(
        reversed(source.gate_output_slots), reversed(source.gate_fanin_slots)
    ):
        if needed[out]:
            for slot in fanins:
                needed[slot] = True
    return [row for row in rows if needed[row[0]]]


def _identity_rows(source) -> tuple[list[tuple], list[tuple]]:
    """The identity canon of ``source`` and its gates as ``keep`` rows.

    A pass changed nothing exactly when its ``keep`` list equals these
    rows: every gate kept, with its type and fanins as they were.
    """
    ident = [("slot", s) for s in range(source.num_slots)]
    rows = [
        (out, gtype, tuple([ident[s] for s in fanins]))
        for gtype, out, fanins in zip(
            source.gate_types, source.gate_output_slots,
            source.gate_fanin_slots,
        )
    ]
    return ident, rows


def _const_type(bit: int) -> GateType:
    return GateType.CONST1 if bit else GateType.CONST0


def _renumber(source, canon: list[tuple], keep: list[tuple]):
    """Lay the kept gates out as new slot arrays; returns ``(arrays, provenance)``.

    The numbering is the one compiling the equivalent netlist gives
    (see the pass-machinery comment above): the netlist's insertion
    order is already its topological order, so slot ``n + i`` is the
    ``i``-th gate laid out here.
    """
    names = source.net_names
    inputs = source.inputs
    n = len(inputs)
    new_names = list(inputs)
    types: list[GateType] = []
    fanins: list[tuple[int, ...]] = []
    new_of: dict[int, int] = {}  # surviving root -> its new slot
    const_of: dict[int, int] = {}  # bit -> slot of its _opt_const net
    used: set[str] | None = None

    for out, gtype, vals in keep:
        slots = []
        for kind, payload in vals:
            if kind == "slot":
                slots.append(payload if payload < n else new_of[payload])
                continue
            slot = const_of.get(payload)
            if slot is None:
                if used is None:
                    used = {*inputs, *source.outputs}
                    used.update(names[o] for o, _, _ in keep)
                net = f"_opt_const{payload}"
                while net in used:
                    net += "_"
                used.add(net)
                slot = const_of[payload] = len(new_names)
                new_names.append(net)
                types.append(_const_type(payload))
                fanins.append(())
            slots.append(slot)
        new_of[out] = len(new_names)
        new_names.append(names[out])
        types.append(gtype)
        fanins.append(tuple(slots))

    output_slots = []
    driven: dict[str, int] = {}  # output net given a driver here -> slot
    for po, old in zip(source.outputs, source.output_slots):
        slot = old if old < n else new_of.get(old, driven.get(po))
        if slot is None:
            kind, payload = canon[old]
            slot = driven[po] = len(new_names)
            new_names.append(po)
            if kind == "const":
                types.append(_const_type(payload))
                fanins.append(())
            else:
                types.append(GateType.BUF)
                fanins.append((payload if payload < n else new_of[payload],))
        output_slots.append(slot)

    # Only ``coi`` drops roots, and it never reads a constant net.
    provenance = []
    for val in canon:
        kind, payload = val
        if kind == "const":
            provenance.append(val)
            continue
        new = payload if payload < n else new_of.get(payload)
        provenance.append(("slot", new) if new is not None else ("dropped",))
    arrays = _Slots(source, new_names, types, fanins, output_slots)
    return arrays, provenance


def _apply_pass(source, name: str, identity=None):
    """One pass over ``source`` (a compiled circuit or :class:`_Slots`).

    ``identity`` is ``source``'s :func:`_identity_rows`, shared by the
    passes that find nothing to change.  Returns ``(arrays,
    provenance)`` with provenance as a list indexed by ``source`` slot,
    or None when the pass changes nothing.
    """
    ident, rows = identity or _identity_rows(source)
    canon = list(ident)
    if name == "coi":
        keep = _output_cone(source, rows)
    else:
        keep = []
        _PASS_RULES[name](source, canon, keep)
    if keep == rows:
        return None
    return _renumber(source, canon, keep)


def run_pass(compiled: "CompiledCircuit", name: str) -> OptimizedCircuit:
    """Apply a single pass by name (``sweep``/``chains``/``strash``/``coi``).

    Mostly a testing and inspection entry point; production callers use
    :func:`optimize_compiled` / :meth:`CompiledCircuit.optimized`.  A
    pass that changes nothing returns ``compiled`` itself.
    """
    if name not in PASS_NAMES:
        raise ValueError(
            f"unknown pass {name!r} (choose from {PASS_NAMES})"
        )
    step = _apply_pass(compiled, name)
    if step is None:
        return _identity(compiled, name, (name,), {name: 0})
    arrays, provenance = step
    return OptimizedCircuit(
        source=compiled,
        compiled=arrays.build(),
        provenance=dict(enumerate(provenance)),
        level=name,
        passes=(name,),
        stats={name: compiled.num_gates - arrays.num_gates},
    )


def _same_structure(a, b) -> bool:
    """:meth:`CompiledCircuit.__eq__` over arrays (the interface is fixed)."""
    return (
        a.gate_types == b.gate_types
        and a.gate_output_slots == b.gate_output_slots
        and a.gate_fanin_slots == b.gate_fanin_slots
    )


def optimize_compiled(
    compiled: "CompiledCircuit", level: str | None = None
) -> OptimizedCircuit:
    """Run the optimization pipeline for ``level`` to a fixpoint.

    ``level`` is an opt lever value (``None`` -> process default,
    ``"auto"`` -> the full pipeline).  Passes run in pipeline order,
    repeating until a whole round leaves the structure as it found it
    (each pass can expose work for the next: a strash merge creates the
    tied fanins the sweep folds).  The result's
    :attr:`OptimizedCircuit.provenance` composes across every
    application.  One circuit is built for the result, at the end; when
    no pass changes anything the result's ``compiled`` is ``compiled``
    itself.
    """
    resolved = resolve_opt(level)
    if resolved == "off" or compiled.num_gates == 0:
        return _identity(compiled, resolved)
    pipeline = _PIPELINES[resolved]
    current = compiled
    provenance: list[tuple] | None = None  # None: the identity
    applied: list[str] = []
    stats: dict[str, int] = {}
    identity = None  # _identity_rows(current), built on first use
    for _ in range(_MAX_ROUNDS):
        before = current
        for name in pipeline:
            applied.append(name)
            identity = identity or _identity_rows(current)
            step = _apply_pass(current, name, identity)
            if step is None:
                stats[name] = stats.get(name, 0)
                continue
            arrays, second = step
            stats[name] = (
                stats.get(name, 0) + current.num_gates - arrays.num_gates
            )
            provenance = second if provenance is None else [
                second[val[1]] if val[0] == "slot" else val
                for val in provenance
            ]
            current = arrays
            identity = None
        if current is before or _same_structure(current, before):
            break
    if current is compiled:
        return _identity(compiled, resolved, tuple(applied), stats)
    return OptimizedCircuit(
        source=compiled,
        compiled=current.build(),
        provenance=dict(enumerate(provenance)),
        level=resolved,
        passes=tuple(applied),
        stats=stats,
    )
