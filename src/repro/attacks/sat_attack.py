"""The oracle-guided SAT attack [5], used as the paper's baseline.

The attack builds a *miter*: two copies of the locked circuit share
their primary inputs but carry independent key vectors, and a guarded
clause asserts that some output pair differs.  Each satisfying
assignment yields a Distinguishing Input Pattern (DIP); querying the
oracle on the DIP and constraining both key vectors to reproduce the
observed response eliminates at least one wrong key equivalence class.
When the miter becomes UNSAT, any key consistent with the recorded
I/O pairs is functionally correct on the whole (possibly pinned) input
space.

This module reproduces the "Baseline [5]" column of the paper's
Table 2 and the ``N = 0`` row of Table 1; :mod:`repro.core.multikey`
invokes it once per sub-space for the multi-key attack itself.

The implementation is split into two reusable pieces:

* :func:`build_miter_encoding` encodes the locked circuit's miter once
  into an incremental solver and returns a :class:`MiterEncoding`
  handle (slot-indexed solver variables, key halves, activation
  literal).
* :func:`run_dip_loop` drives the DIP refinement loop against a
  pre-built encoding.  Sub-space restrictions arrive either as unit
  clauses (``pin`` — permanent, the classic single-attack form) or as
  per-call *assumptions* plus a *guard* literal for the learned I/O
  constraints — which is how :mod:`repro.core.sharded` runs ``2^N``
  sub-space shards against one warm solver without re-encoding.

Both return an :class:`AttackOutcome`, the one result type of every
attack in :mod:`repro.attacks`.

Implementation notes (all standard, all load-bearing for speed):

* The locked netlist is compiled once (``netlist.compile()``); the DIP
  loop works entirely on integer slots — solver variables live in
  slot-indexed arrays, and the per-DIP simulation is one sweep over
  the compiled gate program.
* Only the *key-controlled* cone is duplicated; the key-independent
  majority of the circuit is encoded once and shared by both halves.
* Per-DIP constraint copies are built from a single-pattern simulation:
  nets outside the key cone are substituted as constants, so each DIP
  adds only O(cone) clauses.  A cone gate whose fanins are all constant,
  or that a constant fanin controls (0 into an AND, 1 into an OR), is
  the same constant for every key and is skipped outright.
* One fold, shared gates: each cone gate of a DIP copy is folded once
  on ``key1`` and, when still live, hash-consed
  (:meth:`MiterEncoding.copy_gate`): a gate some earlier DIP already
  built is reused.  A new XOR or MUX is built together with its
  ``key2`` twin; a new AND stays a placeholder until something needs
  its variable (:meth:`MiterEncoding.ensure`).
* Crunched PO clauses: a DIP adds only its guarded PO clauses for both
  halves, and a PO that is still an unencoded AND becomes clauses over
  its fanins (:meth:`MiterEncoding.clauses_for`).  A point-function
  DIP (SARLock, Anti-SAT) is one clause over key literals, so earlier
  DIPs leave no variables for later solves to propagate.
* One incremental solver carries learned clauses across iterations;
  the miter assertion hangs off an activation literal so the final
  key-extraction call can drop it.
* Input pins (the multi-key attack's sub-space condition) are plain
  unit clauses, and DIPs then automatically respect the pinned bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.circuit.cnf import encode_gate, encode_gates
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.gates import GateType
from repro.circuit.opt import OPT_LEVEL
from repro.circuit.simulator import random_stimuli_words
from repro.locking.base import LockedCircuit, key_to_int
from repro.metrics.engine import key_diffs
from repro.oracle.oracle import Oracle
from repro.sat.registry import create_solver, resolve_solver_name
from repro.sat.solver import Solver

_AND_FAMILY = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)
#: The fanin value that fixes an AND-family gate's output for every
#: key; 2 (no 0/1 value) for every other gate type.
_CONTROLLING = {
    GateType.AND: 0, GateType.NAND: 0, GateType.OR: 1, GateType.NOR: 1,
}
#: Placeholders (lazy AND copy gates, see :class:`MiterEncoding`) are
#: numbered from here, far above any solver variable.
_PLACEHOLDER_BASE = 1 << 60


@dataclass(slots=True)
class AttackIteration:
    """One DIP-loop iteration, for per-iteration runtime reporting.

    The DIP is kept packed — ``dip_bits[j]`` is the bit of
    ``inputs[j]``, and every iteration of an attack shares one
    ``inputs`` tuple — because a result records one iteration per DIP
    and a dict per DIP would dominate its size.  :attr:`dip` unpacks it.
    """

    dip_bits: bytes
    inputs: tuple[str, ...]
    elapsed_seconds: float
    conflicts: int

    @property
    def dip(self) -> dict[str, int]:
        """The DIP as primary-input net -> bit."""
        return dict(zip(self.inputs, self.dip_bits))


#: Statuses that count as a successful (sub-space) attack.  ``"ok"`` is
#: an exact key; ``"settled"`` is AppSAT's acceptance criterion (the
#: empirical error rate stayed under threshold) — approximate by
#: design, still the attack succeeding on its own terms.
SUCCESS_STATUSES = frozenset({"ok", "settled"})


@dataclass
class AttackOutcome:
    """What every attack returns: the SAT attack, its DIP loop, AppSAT
    and brute force alike.

    Attributes:
        attack: The registered attack name that produced this outcome.
        key: The recovered key (``None`` when the attack failed or a
            budget stopped it without a candidate).
        status: ``"ok"`` | ``"settled"`` | ``"timeout"`` |
            ``"dip_limit"`` | ``"no_key"`` (see
            :data:`SUCCESS_STATUSES`).
        elapsed_seconds: Wall-clock time of the attack (or shard).
        oracle_queries: Oracle queries issued by this attack (a delta,
            so shared oracles report per-attack counts correctly).
        num_dips: DIP iterations, for DIP-driven attacks (0 otherwise).
        solver_stats: Solver counter deltas, when a solver was used
            (see :meth:`repro.sat.solver.SolverStats.as_dict`).
        key_order: Key port names fixing :attr:`key_int` bit order.
        pinned: The sub-space restriction the attack ran under.
        all_keys: Every correct key as an integer, for attacks that
            enumerate (brute force); ``None`` for attacks that return
            a single witness.
        iterations: Per-DIP timing when the SAT attack ran with
            ``record_iterations``.
        encode_stats: Structural facts about the miter encoding the
            SAT attack ran on (gate counts pre/post optimization,
            solver variable/clause counts) — see
            :func:`build_miter_encoding`.  Empty when the caller drove
            :func:`run_dip_loop` directly.
        detail: Attack-specific extras (e.g. AppSAT's checkpoint error
            rates) — JSON-serializable, informational only.
    """

    attack: str
    key: dict[str, bool] | None
    status: str
    elapsed_seconds: float
    oracle_queries: int
    num_dips: int = 0
    solver_stats: dict[str, int] = field(default_factory=dict)
    key_order: list[str] = field(default_factory=list)
    pinned: dict[str, bool] = field(default_factory=dict)
    all_keys: list[int] | None = None
    iterations: list[AttackIteration] = field(default_factory=list)
    encode_stats: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True when the attack met its own success criterion."""
        return self.status in SUCCESS_STATUSES and self.key is not None

    @property
    def key_int(self) -> int | None:
        """Key packed as an integer (bit ``j`` = key port ``j``)."""
        if self.key is None:
            return None
        return key_to_int([int(self.key[net]) for net in self.key_order])


@dataclass
class MiterEncoding:
    """A locked circuit's miter, encoded once into an incremental solver.

    Built by :func:`build_miter_encoding`; consumed by
    :func:`run_dip_loop` (possibly many times, with different
    assumptions — that reuse is the sharded engine's whole point).

    Per-DIP copy gates live in *copy literals*: DIMACS literals over
    solver variables (key ports, ``±true_var``, XOR/MUX copy gates) and
    over *placeholders* — ids above :data:`_PLACEHOLDER_BASE` that
    name an AND-family copy gate with no solver variable yet.
    :meth:`ensure` turns a copy literal into a solver literal, encoding
    a placeholder's AND on first use; :meth:`clauses_for` asserts one
    without encoding it where the polarity allows.

    Attributes:
        solver: The incremental CDCL solver holding the encoding.
        compiled: The compiled locked circuit the encoding came from.
        key_inputs: Key port names (the locked circuit's key order).
        input_vars: Primary-input net -> solver variable (key ports
            excluded; both miter halves share these).
        key1 / key2: Slot-indexed variables of the two key vectors.
        cone_idx: Indices of key-controlled gates in compiled order.
        controlled_pos: ``(name, slot)`` of key-controlled outputs.
        act: Activation literal for the miter difference clause;
            assume ``act`` while searching DIPs, ``-act`` to extract.
        true_var: Anchor variable fixed to true (constant substitution).
        base_vars: Variable count right after base encoding — the
            soundness ceiling for :meth:`Solver.export_learnts`.
        solver_name: Registry name of the backend holding the encoding
            (``"custom"`` when the caller passed an instance of an
            unregistered type).
        gates_before / gates_after: Structural gate count of the locked
            circuit before and after optimization; ``compiled`` is the
            *optimized* circuit (see :mod:`repro.circuit.opt`).
        base_clauses: Clause count right after base encoding; together
            with :attr:`base_vars` this is the encoded size every
            backend sees.
        copy_gates: Structural-hash table of the per-DIP copy gates,
            ``(kind, normalized key1 copy literals)`` -> the gate's
            ``key1`` copy literal: a placeholder for an AND, a solver
            variable for an XOR or MUX (see :meth:`copy_gate`).
        copy_twin: ``key1`` solver literal -> its ``key2`` literal, for
            the key ports, ``±true_var`` and every encoded copy gate.
        placeholders: Placeholder -> the copy literals its AND reads,
            in creation (so topological) order.
        placeholder_vars: Placeholder -> ``key1`` solver variable, for
            the placeholders :meth:`ensure` has encoded.
        cone_gates: Per :attr:`cone_idx` gate, ``(type, fanin slots,
            output slot, controlling value)``: derived once from
            ``compiled`` for the per-DIP cone walk.
    """

    solver: Solver
    compiled: CompiledCircuit
    key_inputs: list[str]
    input_vars: dict[str, int]
    key1: list[int]
    key2: list[int]
    cone_idx: list[int]
    controlled_pos: list[tuple[str, int]]
    act: int
    true_var: int
    base_vars: int
    solver_name: str = "python"
    gates_before: int = 0
    gates_after: int = 0
    base_clauses: int = 0
    copy_gates: dict[tuple, int] = field(default_factory=dict, repr=False)
    copy_twin: dict[int, int] = field(default_factory=dict, repr=False)
    placeholders: dict[int, tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )
    placeholder_vars: dict[int, int] = field(default_factory=dict, repr=False)
    cone_gates: list[tuple[GateType, tuple[int, ...], int, int]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        compiled = self.compiled
        self.cone_gates = [
            (
                compiled.gate_types[i],
                compiled.gate_fanin_slots[i],
                compiled.gate_output_slots[i],
                _CONTROLLING.get(compiled.gate_types[i], 2),
            )
            for i in self.cone_idx
        ]

    def encode_stats(self) -> dict:
        """JSON-ready pre/post structural summary of this encoding."""
        return {
            "opt": OPT_LEVEL,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "vars": self.base_vars,
            "clauses": self.base_clauses,
        }

    def copy_gate(self, gtype: GateType, ins: list[int]) -> int:
        """The ``key1`` copy literal of one per-DIP copy gate, folded and shared.

        ``ins`` are ``key1``-side copy literals in which ``±true_var``
        plays constant true/false.  Constants, duplicate and
        complementary fanins fold as in :mod:`repro.circuit.opt`'s
        sweep; a gate that folds to a constant or one fanin returns
        that literal.  A gate still live is normalized — AND/NAND/OR/NOR
        to an AND with an output sign, XOR/XNOR to an XOR of sorted
        positive literals with a parity, MUX to a positive select —
        and looked up in :attr:`copy_gates`.

        A miss on an AND adds no clauses: the gate gets a fresh
        placeholder, encoded only if :meth:`ensure` is ever asked for
        it.  A miss on an XOR or MUX ensures its fanins and adds the
        ``key1`` gate and its ``key2`` twin, together.  A definition is
        an unguarded Tseitin definition over key variables, so every
        later DIP, guard and shard in the frame may share it.
        """
        true = self.true_var
        if gtype in _AND_FAMILY:
            # De Morgan: OR/NOR are ANDs of the complemented fanins.
            flip = gtype is GateType.OR or gtype is GateType.NOR
            sign = -1 if gtype is GateType.NAND or gtype is GateType.OR else 1
            live: set[int] = set()
            for lit in ins:
                if flip:
                    lit = -lit
                if lit == true:
                    continue  # identity constant
                if lit == -true or -lit in live:
                    return -sign * true  # absorbing constant, or x AND !x
                live.add(lit)
            if len(live) < 2:
                return sign * (live.pop() if live else true)
            kind, lits = "AND", tuple(sorted(live))
        elif gtype is GateType.XOR or gtype is GateType.XNOR:
            parity = gtype is GateType.XNOR
            live = set()
            for lit in ins:
                if lit < 0:  # !x == x XOR 1 (so -true nets out to no flip)
                    lit = -lit
                    parity = not parity
                if lit == true:
                    parity = not parity
                elif lit in live:
                    live.remove(lit)  # x XOR x == 0
                else:
                    live.add(lit)
            sign = -1 if parity else 1
            if len(live) < 2:
                return sign * (live.pop() if live else -true)
            kind, lits = "XOR", tuple(sorted(live))
        elif gtype is GateType.MUX:
            sel, d1, d0 = ins
            if sel < 0:
                sel, d1, d0 = -sel, d0, d1
            if sel == true or d1 == d0:
                return d1
            sign, kind, lits = 1, "MUX", (sel, d1, d0)
        elif gtype is GateType.BUF:
            return ins[0]
        elif gtype is GateType.NOT:
            return -ins[0]
        else:
            return true if gtype is GateType.CONST1 else -true
        key = (kind, lits)
        out = self.copy_gates.get(key)
        if out is None:
            if kind == "AND":
                out = _PLACEHOLDER_BASE + len(self.placeholders) + 1
                self.placeholders[out] = lits
            else:
                ins = [self.ensure(lit) for lit in lits]
                out = self._define(GateType(kind), ins)
            self.copy_gates[key] = out
        return sign * out

    def ensure(self, lit: int) -> int:
        """The solver literal of copy literal ``lit``.

        A solver literal is returned as it is.  A placeholder is
        encoded on first use: a Tseitin AND over :meth:`_and_lits` of
        its fanins, with its ``key2`` twin.
        """
        fanins = self.placeholders.get(abs(lit))
        if fanins is None:
            return lit
        var = self.placeholder_vars.get(abs(lit))
        if var is None:
            var = self._define(GateType.AND, self._and_lits(fanins))
            self.placeholder_vars[abs(lit)] = var
        return var if lit > 0 else -var

    def clauses_for(self, lit: int) -> list[list[int]]:
        """``key1`` clauses that hold exactly when copy literal ``lit`` does.

        The polarity-aware clause form of Plaisted & Greenbaum: a true
        unencoded AND is one unit per fanin, recursively; a false one
        is the single clause over its negated :meth:`_and_lits`.  Any
        other literal — an encoded placeholder included — is the unit
        of :meth:`ensure`.  Every copy gate is a function of the keys,
        so the clauses admit exactly the keys that make ``lit`` true.
        """
        clauses: list[list[int]] = []
        seen: set[int] = set()
        todo = [lit]
        while todo:
            lit = todo.pop()
            fanins = self.placeholders.get(abs(lit))
            if fanins is None or abs(lit) in self.placeholder_vars:
                clauses.append([self.ensure(lit)])
            elif lit > 0:
                if lit not in seen:
                    seen.add(lit)
                    todo.extend(reversed(fanins))
            else:
                clauses.append([-fanin for fanin in self._and_lits(fanins)])
        return clauses

    def _and_lits(self, fanins: tuple[int, ...]) -> list[int]:
        """Solver literals whose AND equals the AND of copy literals ``fanins``.

        Unencoded positive placeholders are flattened into their own
        fanins (each at most once); every other fanin is ensured — a
        negative placeholder needs its variable.
        """
        out: dict[int, None] = {}
        seen: set[int] = set()
        todo = list(reversed(fanins))
        while todo:
            lit = todo.pop()
            nested = self.placeholders.get(lit)
            if nested is not None and lit not in self.placeholder_vars:
                if lit not in seen:
                    seen.add(lit)
                    todo.extend(reversed(nested))
            else:
                out[self.ensure(lit)] = None
        return list(out)

    def _define(self, gate: GateType, ins: list[int]) -> int:
        """Encode ``gate`` over ``key1`` solver literals and its twin."""
        solver, twin = self.solver, self.copy_twin
        out, out2 = solver.new_var(), solver.new_var()
        encode_gate(solver, gate, out, ins)
        encode_gate(solver, gate, out2, [twin[lit] for lit in ins])
        twin[out], twin[-out] = out2, -out2
        return out

    def checkpoint(self) -> tuple[tuple[int, int, int], int]:
        """Open a solver frame; :meth:`rollback` to the mark closes it."""
        return self.solver.checkpoint(), len(self.placeholders)

    def rollback(self, mark: tuple[tuple[int, int, int], int]) -> None:
        """Roll the solver back to ``mark``, and the copy gates with it.

        Copy gates made after ``mark`` go: variables above the solver
        mark and placeholders created since :meth:`checkpoint`, with
        their :attr:`copy_gates`, :attr:`copy_twin` and
        :attr:`placeholders` entries.  A placeholder that survives but
        was encoded inside the frame loses its :attr:`placeholder_vars`
        entry and is unencoded again.  No surviving entry refers to a
        rolled-back variable or placeholder.  Call this instead of
        ``solver.rollback`` so the tables cannot drift apart.
        """
        solver_mark, kept = mark
        self.solver.rollback(solver_mark)
        nvars = self.solver.num_vars
        last = _PLACEHOLDER_BASE + kept
        self.placeholders = {
            p: fanins for p, fanins in self.placeholders.items() if p <= last
        }
        # A placeholder made in the frame can only be encoded in it.
        self.placeholder_vars = {
            p: var for p, var in self.placeholder_vars.items() if var <= nvars
        }
        self.copy_gates = {
            key: lit
            for key, lit in self.copy_gates.items()
            if lit <= nvars or _PLACEHOLDER_BASE < lit <= last
        }
        self.copy_twin = {
            lit: twin for lit, twin in self.copy_twin.items() if abs(lit) <= nvars
        }


def build_miter_encoding(
    locked: LockedCircuit,
    solver: Solver | str | None = None,
) -> MiterEncoding:
    """Encode ``locked``'s key-comparison miter into ``solver`` once.

    Args:
        locked: The reverse-engineered locked netlist with key ports.
        solver: Backend to encode into — a registered backend *name*
            (see :mod:`repro.sat.registry`), a solver instance, or
            ``None`` for the process default backend.

    Returns a :class:`MiterEncoding` whose variable numbering is a
    deterministic function of the optimized compiled circuit — two
    processes encoding the same circuit agree on every variable id,
    which is what makes cross-process learned-clause import sound.

    The locked circuit — key cone included — is structurally optimized
    (:mod:`repro.circuit.opt`) *once*, before the cone split, so the
    shared half, both duplicated halves and every per-DIP constraint
    copy are built from the smaller circuit and every backend sees
    fewer variables and clauses.
    """
    netlist = locked.netlist
    compiled = netlist.compile()
    gates_before = compiled.num_gates
    compiled = compiled.optimized().compiled
    slot_of = compiled.slot_of
    num_slots = compiled.num_slots
    key_set = set(locked.key_inputs)

    key_slots = [slot_of[net] for net in locked.key_inputs]
    controlled = compiled.tainted_slots(key_slots)
    gate_out = compiled.gate_output_slots
    shared_idx = [i for i, out in enumerate(gate_out) if not controlled[out]]
    cone_idx = [i for i, out in enumerate(gate_out) if controlled[out]]

    if solver is None or isinstance(solver, str):
        solver_name = resolve_solver_name(solver)
        solver = create_solver(solver_name)
    else:
        solver_name = getattr(solver, "backend_name", "custom")
    # Slot-indexed solver variables (0 = no variable for that slot).
    shared_vars = [0] * num_slots
    input_vars: dict[str, int] = {}
    for name in compiled.inputs:
        if name in key_set:
            continue
        var = solver.new_var()
        shared_vars[slot_of[name]] = var
        input_vars[name] = var
    key1 = [0] * num_slots
    key2 = [0] * num_slots
    for s in key_slots:
        key1[s] = solver.new_var()
    for s in key_slots:
        key2[s] = solver.new_var()

    # Key-independent logic, encoded once and shared by both halves.
    # (Untainted gates cannot read a key slot, so every fanin already
    # has a shared variable by topological order.)
    encode_gates(solver, compiled, shared_vars, shared_idx)
    halves = []
    for key_vars in (key1, key2):
        half = list(shared_vars)
        for s in key_slots:
            half[s] = key_vars[s]
        encode_gates(solver, compiled, half, cone_idx)
        halves.append(half)
    half1, half2 = halves

    # Miter over key-controlled outputs only; key-independent outputs
    # cannot differ between the halves.
    act = solver.new_var()
    diff_vars = []
    controlled_pos: list[tuple[str, int]] = []
    for po, po_slot in zip(compiled.outputs, compiled.output_slots):
        if not controlled[po_slot]:
            continue
        controlled_pos.append((po, po_slot))
        diff = solver.new_var()
        encode_gate(solver, GateType.XOR, diff, [half1[po_slot], half2[po_slot]])
        diff_vars.append(diff)
    solver.add_clause([-act] + diff_vars)

    # Anchor variable for substituting simulated constants per DIP.
    true_var = solver.new_var()
    solver.add_clause([true_var])
    copy_twin = {true_var: true_var, -true_var: -true_var}
    for s in key_slots:
        copy_twin[key1[s]], copy_twin[-key1[s]] = key2[s], -key2[s]

    return MiterEncoding(
        solver=solver,
        compiled=compiled,
        key_inputs=list(locked.key_inputs),
        input_vars=input_vars,
        key1=key1,
        key2=key2,
        cone_idx=cone_idx,
        controlled_pos=controlled_pos,
        act=act,
        true_var=true_var,
        base_vars=solver.num_vars,
        solver_name=solver_name,
        gates_before=gates_before,
        gates_after=compiled.num_gates,
        base_clauses=solver.num_clauses,
        copy_twin=copy_twin,
    )


def _dip_po_lits(
    enc: MiterEncoding, values: Sequence[int], response: Mapping[str, int]
) -> list[int]:
    """The ``key1`` copy literals that make one DIP's POs match ``response``.

    ``values`` are the simulated slot values under the DIP with every
    key bit 0 (key-independent slots become constants).  The key cone
    is folded once on ``key1`` through :meth:`MiterEncoding.copy_gate`,
    which shares every live gate with earlier DIPs.

    Only the DIP's live cone is walked.  A gate whose fanins are all
    constant under the DIP folds to a constant that is the same for
    every key, so it equals the gate's value in ``values``: the gate is
    skipped and its readers take that value.  So is an AND-family gate
    with a constant fanin at its controlling value (0 into AND/NAND, 1
    into OR/NOR), before its fanin list is built: ``copy_gate`` would
    fold it to that same constant.  A gate ``copy_gate`` folds to a
    constant is recorded the same way.
    """
    true = enc.true_var
    consts = (-true, true)
    copy_gate = enc.copy_gate

    # Slot -> key1 copy literal of each key-dependent slot; 0 where the
    # DIP makes the slot a constant (values[slot] then holds it).
    lits = list(enc.key1)
    for gtype, fanins, out_slot, ctrl in enc.cone_gates:
        live = False
        for s in fanins:
            if lits[s]:
                live = True
            elif values[s] == ctrl:
                break  # a controlling constant: the gate is one too
        else:
            if live:  # else all fanins constant: so is the gate
                out = copy_gate(
                    gtype, [lits[s] or consts[values[s]] for s in fanins]
                )
                if out != true and out != -true:
                    lits[out_slot] = out
    return [
        (lits[slot] or consts[values[slot]]) * (1 if response[po] else -1)
        for po, slot in enc.controlled_pos
    ]


def _add_dip_copies(
    enc: MiterEncoding,
    values: Sequence[int],
    response: Mapping[str, int],
    guard: int | None,
) -> None:
    """Constrain both key vectors to reproduce ``response`` on one DIP.

    :func:`_dip_po_lits` folds the DIP's cone; each PO literal becomes
    :meth:`MiterEncoding.clauses_for` — a PO that is still an unencoded
    AND becomes clauses over its fanins instead of a new variable, so a
    point-function DIP (SARLock, Anti-SAT: "the flip AND is 0") is one
    clause over key literals.  ``key2``'s clauses are ``key1``'s mapped
    through :attr:`~MiterEncoding.copy_twin`.  Only these clauses — the
    one part that depends on the response — are guarded.
    """
    clauses = []
    for lit in _dip_po_lits(enc, values, response):
        clauses += enc.clauses_for(lit)
    twin = enc.copy_twin
    clauses += [[twin[lit] for lit in clause] for clause in clauses]
    add_clause = enc.solver.add_clause
    for clause in clauses:
        add_clause(clause if guard is None else [-guard, *clause])


def solver_stats_delta(solver: Solver, before: Mapping[str, int]) -> dict[str, int]:
    """``solver``'s counters since ``before`` (a ``stats.as_dict()``).

    The decision-level high-water mark is not a counter, so it is
    reported absolute: the maximum observed so far, not a delta.
    """
    after = solver.stats.as_dict()
    delta = {name: after[name] - before[name] for name in after}
    delta["max_decision_level"] = after["max_decision_level"]
    return delta


def run_dip_loop(
    enc: MiterEncoding,
    oracle: Oracle,
    pin: Mapping[str, bool] | None = None,
    assume: Sequence[int] = (),
    guard: int | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    record_iterations: bool = True,
    extract_on_budget: bool = False,
    start: float | None = None,
) -> AttackOutcome:
    """Drive the DIP refinement loop against a pre-built miter encoding.

    Args:
        enc: Encoding from :func:`build_miter_encoding`.  May carry
            state from earlier calls — learned clauses are an asset,
            and guarded constraints from other sub-spaces are inert.
        oracle: Black-box access to the original function.
        pin: The sub-space restriction, for reporting and for the
            per-DIP simulation.  The *solver-side* restriction must be
            supplied separately: either unit clauses
            (:func:`pinned_miter_encoding`) or ``assume`` literals.
        assume: Extra assumption literals applied to every solver call
            (the sharded engine pins splitting inputs here).
        guard: When set, every learned I/O constraint is guarded by
            this literal (clauses get ``-guard``) and ``guard`` joins
            the assumptions — so constraints from this sub-space do not
            leak into other shards sharing the solver.
        time_limit: Wall-clock budget in seconds (None = unlimited).
        max_dips: Iteration cap (None = unlimited).
        record_iterations: Keep per-DIP timing (cheap; disable for
            massive sweeps).
        extract_on_budget: When a budget stops the DIP loop early,
            still extract a key consistent with the DIPs seen so far —
            an *approximate* key.  AppSAT reads its per-round candidate
            this way, then resumes the loop on the same encoding.
        start: Clock origin for ``elapsed_seconds``/``time_limit``
            (defaults to now; :func:`sat_attack` passes its own start
            so encoding time counts against the budget).

    Returns the recovered key — correct on every input consistent with
    the sub-space restriction — plus per-call statistics (oracle
    queries and solver counters are deltas, so shared oracles/solvers
    report per-shard numbers).
    """
    if start is None:
        start = time.perf_counter()
    pin = dict(pin or {})
    solver = enc.solver
    compiled = enc.compiled
    input_vars = enc.input_vars
    input_names = compiled.inputs

    base_assume = list(assume)
    if guard is not None:
        base_assume.append(guard)
    stats_before = solver.stats.as_dict()
    queries_before = oracle.query_count

    iterations: list[AttackIteration] = []
    dip_inputs = tuple(input_vars)
    num_dips = 0
    status = "ok"

    while True:
        if time_limit is not None and time.perf_counter() - start > time_limit:
            status = "timeout"
            break
        if max_dips is not None and num_dips >= max_dips:
            status = "dip_limit"
            break
        iter_start = time.perf_counter()
        conflicts_before = solver.stats.conflicts
        if not solver.solve(assumptions=[enc.act] + base_assume):
            break  # no DIP left: key space is functionally collapsed

        dip = {
            net: int(solver.model_value(var) or 0)
            for net, var in input_vars.items()
        }
        response = oracle.query(dip)
        num_dips += 1

        # Values of all key-independent slots under this DIP (key = 0).
        words = [dip.get(name, 0) for name in input_names]
        values = compiled.eval_words(words, 1)
        _add_dip_copies(enc, values, response, guard)

        if record_iterations:
            iterations.append(
                AttackIteration(
                    dip_bits=bytes(dip.values()),
                    inputs=dip_inputs,
                    elapsed_seconds=time.perf_counter() - iter_start,
                    conflicts=solver.stats.conflicts - conflicts_before,
                )
            )

    key: dict[str, bool] | None = None
    if status == "ok" or extract_on_budget:
        # Any key satisfying the accumulated I/O constraints works
        # (and is exact when the DIP loop ran to completion).
        if solver.solve(assumptions=[-enc.act] + base_assume):
            slot_of = compiled.slot_of
            key = {
                net: bool(solver.model_value(enc.key1[slot_of[net]]))
                for net in enc.key_inputs
            }
        elif status == "ok":  # pragma: no cover - k* satisfies everything
            status = "no_key"

    return AttackOutcome(
        attack="sat",
        key=key,
        status=status,
        elapsed_seconds=time.perf_counter() - start,
        oracle_queries=oracle.query_count - queries_before,
        num_dips=num_dips,
        solver_stats=solver_stats_delta(solver, stats_before),
        key_order=list(enc.key_inputs),
        pinned=pin,
        iterations=iterations,
    )


def pinned_miter_encoding(
    locked: LockedCircuit,
    pin: Mapping[str, bool],
    solver: Solver | str | None = None,
) -> MiterEncoding:
    """:func:`build_miter_encoding` with ``pin`` fixed as unit clauses.

    The prologue every single-encoding attack shares: reject pins on
    anything but a primary input, encode the miter, pin the inputs
    and constant-propagate the pins through the shared logic.
    """
    key_set = set(locked.key_inputs)
    for net in pin:
        if net not in locked.netlist.inputs or net in key_set:
            raise ValueError(f"pinned net {net!r} is not a primary input")

    enc = build_miter_encoding(locked, solver=solver)
    for net, value in pin.items():
        var = enc.input_vars[net]
        enc.solver.add_clause([var if value else -var])
    if pin and hasattr(enc.solver, "simplify"):
        # Constant-propagate the pins through the shared logic before
        # the DIP loop: the reference multi-key arm pays for pinned
        # clauses on every conflict otherwise.
        enc.solver.simplify()
    return enc


def sat_attack(
    locked: LockedCircuit,
    oracle: Oracle,
    pin: Mapping[str, bool] | None = None,
    time_limit: float | None = None,
    max_dips: int | None = None,
    record_iterations: bool = True,
    solver: Solver | str | None = None,
) -> AttackOutcome:
    """Run the SAT attack on ``locked`` against ``oracle``.

    Args:
        locked: The reverse-engineered locked netlist with key ports.
        oracle: Black-box access to the original function.
        pin: Optional constants on primary inputs — this restricts the
            attack to a sub-space and is exactly how the multi-key
            attack invokes it (Algorithm 1, line 5).
        time_limit: Wall-clock budget in seconds (None = unlimited).
        max_dips: Iteration cap (None = unlimited).
        record_iterations: Keep per-DIP timing (cheap; disable for
            massive sweeps).
        solver: Backend name/instance (see :func:`build_miter_encoding`).

    Returns the recovered key — correct on every input consistent with
    ``pin`` — plus run statistics.  A budget stop returns no key.
    """
    start = time.perf_counter()
    pin = dict(pin or {})
    enc = pinned_miter_encoding(locked, pin, solver)
    result = run_dip_loop(
        enc,
        oracle,
        pin=pin,
        time_limit=time_limit,
        max_dips=max_dips,
        record_iterations=record_iterations,
        start=start,
    )
    result.encode_stats = enc.encode_stats()
    return result


def verify_key_against_oracle(
    locked: LockedCircuit,
    key: Mapping[str, bool] | int,
    oracle: Oracle,
    num_samples: int = 64,
    seed: int = 0,
    pin: Mapping[str, bool] | None = None,
) -> bool:
    """Attacker-side sanity check: keyed circuit vs oracle on random inputs.

    The attacker has no golden netlist, so full CEC is impossible for
    them; random differential testing against the oracle is the
    realistic check.  ``pin`` restricts sampled patterns to a sub-space.
    All ``num_samples`` patterns run as ONE bit-parallel sweep on each
    side (the oracle still counts ``num_samples`` queries).
    """
    import random

    if num_samples < 1:
        return True
    rng = random.Random(seed)
    stimuli = random_stimuli_words(
        [net for net in locked.netlist.inputs if net not in locked.key_inputs],
        num_samples,
        rng,
        pin,
    )
    [diffs] = key_diffs(locked, oracle, [key], stimuli, num_samples)
    return not any(diffs)
