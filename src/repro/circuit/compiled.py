"""Compiled circuit IR: the integer-indexed evaluation core.

A :class:`CompiledCircuit` is built once from a :class:`Netlist` and is
the shared substrate for every hot path — simulation, oracle queries,
CNF encoding, equivalence checking, structural analysis.  Compilation
interns every net into a dense integer *slot* (primary inputs first, in
declaration order, then gate outputs in cached topological order) and
lowers each gate to an arity-specialized opcode over slot indices, so
evaluation is a single sweep over flat parallel arrays with list
indexing instead of per-gate dict lookups and per-call topological
sorts.

The division of labour with :class:`Netlist` is deliberate:

* ``Netlist`` stays the **mutable construction IR** — locking schemes
  splice key gates into it freely.
* ``CompiledCircuit`` is the **immutable evaluation IR** — content-
  hashable (so it can key result caches) and safe to share across
  consumers.  ``netlist.compile()`` is the seam between the two; it
  caches the compiled form and invalidates on structural change (see
  :meth:`repro.circuit.netlist.Netlist.compile`).  Folding happens in
  :mod:`repro.circuit.opt`, which builds its result straight from slot
  arrays (:meth:`CompiledCircuit.from_slots`) in the numbering
  compiling the equivalent netlist would give.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.circuit.gates import GateType, valid_arity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (netlist imports us)
    from repro.circuit.netlist import Gate, Netlist
    from repro.circuit.opt import OptimizedCircuit


class CompileError(Exception):
    """The netlist cannot be lowered (undriven fanin, undriven output)."""


# Arity-specialized opcodes.  The 2-input forms cover the vast majority
# of gates in every circuit family here; the *_N forms loop.
_AND2 = 0
_OR2 = 1
_XOR2 = 2
_NAND2 = 3
_NOR2 = 4
_XNOR2 = 5
_NOT = 6
_BUF = 7
_MUX = 8
_CONST0 = 9
_CONST1 = 10
_AND_N = 11
_OR_N = 12
_XOR_N = 13
_NAND_N = 14
_NOR_N = 15
_XNOR_N = 16

_BINARY_OP = {
    GateType.AND: _AND2,
    GateType.OR: _OR2,
    GateType.XOR: _XOR2,
    GateType.NAND: _NAND2,
    GateType.NOR: _NOR2,
    GateType.XNOR: _XNOR2,
}
_NARY_OP = {
    GateType.AND: _AND_N,
    GateType.OR: _OR_N,
    GateType.XOR: _XOR_N,
    GateType.NAND: _NAND_N,
    GateType.NOR: _NOR_N,
    GateType.XNOR: _XNOR_N,
}
# Single-fanin AND(a) == BUF(a), NAND(a) == NOT(a), etc.
_UNARY_OP = {
    GateType.AND: _BUF,
    GateType.OR: _BUF,
    GateType.XOR: _BUF,
    GateType.BUF: _BUF,
    GateType.NAND: _NOT,
    GateType.NOR: _NOT,
    GateType.XNOR: _NOT,
    GateType.NOT: _NOT,
}


def exhaustive_words(num_inputs: int) -> list[int]:
    """Bit-parallel stimuli covering all ``2**num_inputs`` patterns.

    Entry *j* is the word driving input *j*: lane ``p`` holds bit ``j``
    of the pattern index ``p`` (input 0 is the LSB of the index).
    """
    if num_inputs < 0:
        raise ValueError("num_inputs must be non-negative")
    if num_inputs > 24:
        raise ValueError("exhaustive simulation beyond 24 inputs is unreasonable")
    total = 1 << num_inputs
    words = []
    for j in range(num_inputs):
        period = 1 << (j + 1)
        half = 1 << j
        block = ((1 << half) - 1) << half  # 'half' zeros then 'half' ones
        value = 0
        for start in range(0, total, period):
            value |= block << start
        words.append(value)
    return words


class CompiledCircuit:
    """Immutable, integer-indexed form of a combinational netlist.

    Treat every attribute as read-only; the instance is shared by the
    owning netlist's compile cache and by any consumer that captured it
    (oracles, encoders, the runner cache).
    """

    __slots__ = (
        "name",
        "inputs",
        "outputs",
        "num_slots",
        "net_names",
        "slot_of",
        "output_slots",
        "_gates",
        "gate_types",
        "gate_output_slots",
        "gate_fanin_slots",
        "_program",
        "_scratch",
        "_pattern_words",
        "_fanout_slots",
        "_driver",
        "_content_hash",
        "_optimized",
        "_tainted_cache",
    )

    def __init__(self, netlist: "Netlist"):
        order = netlist.topological_order()
        slot_of: dict[str, int] = {}
        for net in netlist.inputs:
            slot_of[net] = len(slot_of)
        for gate in order:
            slot_of[gate.output] = len(slot_of)
        names = [""] * len(slot_of)
        for net, slot in slot_of.items():
            names[slot] = net
        try:
            output_slots = tuple(slot_of[net] for net in netlist.outputs)
        except KeyError as exc:
            raise CompileError(f"primary output {exc.args[0]!r} is undriven") from None
        fanin_slots = []
        for gate in order:
            try:
                fanin_slots.append(tuple(slot_of[src] for src in gate.inputs))
            except KeyError as exc:
                raise CompileError(
                    f"gate {gate.output!r} reads undriven net {exc.args[0]!r}"
                ) from None
        self._set_arrays(
            netlist.name,
            tuple(netlist.inputs),
            tuple(netlist.outputs),
            slot_of,
            tuple(names),
            output_slots,
            tuple(g.gtype for g in order),
            tuple(slot_of[g.output] for g in order),
            tuple(fanin_slots),
        )
        self._gates = tuple(order)

    @classmethod
    def from_slots(
        cls,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        net_names: Sequence[str],
        gate_types: Sequence[GateType],
        gate_fanin_slots: Sequence[tuple[int, ...]],
        output_slots: Sequence[int],
    ) -> "CompiledCircuit":
        """Build directly from slot arrays in compiled numbering.

        Inputs occupy slots ``0..n-1`` and gate ``i`` drives slot
        ``n + i``; every fanin slot must precede its reader.  The
        result is what compiling the netlist with these gates, in this
        order, would give; its :attr:`gates` are built on first use.
        """
        self = cls.__new__(cls)
        self._set_arrays(
            name,
            tuple(inputs),
            tuple(outputs),
            {net: slot for slot, net in enumerate(net_names)},
            tuple(net_names),
            tuple(output_slots),
            tuple(gate_types),
            tuple(range(len(inputs), len(net_names))),
            tuple(gate_fanin_slots),
        )
        self._gates = None
        return self

    def _set_arrays(
        self, name, inputs, outputs, slot_of, net_names, output_slots,
        gate_types, gate_output_slots, gate_fanin_slots,
    ) -> None:
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.num_slots = len(net_names)
        self.slot_of = slot_of
        self.net_names = net_names
        self.output_slots = output_slots
        self.gate_types = gate_types
        self.gate_output_slots = gate_output_slots
        self.gate_fanin_slots = gate_fanin_slots
        self._program = tuple(
            _lower(gtype, out, fanins)
            for gtype, out, fanins in zip(
                gate_types, gate_output_slots, gate_fanin_slots
            )
        )
        self._scratch = [0] * self.num_slots
        self._pattern_words = [0] * len(inputs)
        self._fanout_slots: tuple[tuple[int, ...], ...] | None = None
        self._driver: tuple[int, ...] | None = None
        self._content_hash: str | None = None
        self._optimized: OptimizedCircuit | None = None
        self._tainted_cache: dict[tuple[int, ...], tuple[bool, ...]] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_gates(self) -> int:
        return len(self.gate_types)

    @property
    def gates(self) -> tuple["Gate", ...]:
        """The gates in slot order, as netlist :class:`Gate` records."""
        gates = self._gates
        if gates is None:
            from repro.circuit.netlist import Gate

            names = self.net_names
            gates = tuple(
                Gate(names[out], gtype, tuple(names[s] for s in fanins))
                for gtype, out, fanins in zip(
                    self.gate_types, self.gate_output_slots,
                    self.gate_fanin_slots,
                )
            )
            self._gates = gates
        return gates

    def slot(self, net: str) -> int:
        """Dense slot index of a net (KeyError for unknown nets)."""
        return self.slot_of[net]

    def fanout_slots(self) -> tuple[tuple[int, ...], ...]:
        """Per slot, the output slots of the gates reading it (cached)."""
        cached = self._fanout_slots
        if cached is None:
            readers: list[list[int]] = [[] for _ in range(self.num_slots)]
            for out, fanins in zip(self.gate_output_slots, self.gate_fanin_slots):
                for src in fanins:
                    readers[src].append(out)
            cached = tuple(tuple(r) for r in readers)
            self._fanout_slots = cached
        return cached

    def levels(self) -> list[int]:
        """Topological level per slot (primary inputs are level 0)."""
        levels = [0] * self.num_slots
        for out, fanins in zip(self.gate_output_slots, self.gate_fanin_slots):
            levels[out] = 1 + max((levels[s] for s in fanins), default=0)
        return levels

    def tainted_slots(self, seeds: Iterable[int]) -> list[bool]:
        """Taint propagation: slots transitively depending on ``seeds``.

        One forward sweep over the gate arrays; seed slots themselves
        are marked.  This is the compiled form of key-controlled-gate
        analysis.  Results are cached per seed set (normalized to a
        sorted tuple), so repeated miter builds over the same circuit —
        every shard-chunk worker calls this with the same key slots —
        pay for the sweep once; a fresh list is returned each call, so
        callers may mutate their copy freely.
        """
        key = tuple(sorted(set(seeds)))
        cache = self._tainted_cache
        if cache is None:
            cache = {}
            self._tainted_cache = cache
        hit = cache.get(key)
        if hit is not None:
            return list(hit)
        tainted = [False] * self.num_slots
        for s in key:
            tainted[s] = True
        for out, fanins in zip(self.gate_output_slots, self.gate_fanin_slots):
            for s in fanins:
                if tainted[s]:
                    tainted[out] = True
                    break
        cache[key] = tuple(tainted)
        return tainted

    def fanin_cone_slots(self, slot: int) -> set[int]:
        """Transitive fanin of ``slot`` (inclusive), as slot indices."""
        driver = self._driver_index()
        cone: set[int] = set()
        stack = [slot]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            gi = driver[current]
            if gi >= 0:
                stack.extend(self.gate_fanin_slots[gi])
        return cone

    def fanout_cone_slots(self, slot: int) -> set[int]:
        """Gate-output slots transitively depending on ``slot`` (exclusive)."""
        readers = self.fanout_slots()
        cone: set[int] = set()
        stack = list(readers[slot])
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(readers[current])
        return cone

    def _driver_index(self) -> tuple[int, ...]:
        """Per slot, the index of its driving gate (-1 for inputs); cached."""
        cached = self._driver
        if cached is None:
            driver = [-1] * self.num_slots
            for gi, out in enumerate(self.gate_output_slots):
                driver[out] = gi
            cached = tuple(driver)
            self._driver = cached
        return cached

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def eval_words(self, input_words: Sequence[int], mask: int) -> list[int]:
        """Evaluate bit-parallel words into a fresh slot-indexed list.

        ``input_words`` aligns with :attr:`inputs`; ``mask`` has a 1 in
        every active lane.  Returns the value of every slot.

        Each bit lane is an independent input pattern, so one sweep
        evaluates up to ``mask.bit_length()`` patterns::

            >>> from repro.circuit.netlist import Netlist
            >>> from repro.circuit.gates import GateType
            >>> netlist = Netlist("toy")
            >>> _ = netlist.add_input("a")
            >>> _ = netlist.add_input("b")
            >>> _ = netlist.add_gate("x", GateType.XOR, ["a", "b"])
            >>> netlist.set_outputs(["x"])
            >>> compiled = netlist.compile()
            >>> # Four lanes: a = 0,1,0,1 and b = 0,0,1,1 (LSB first).
            >>> values = compiled.eval_words([0b1010, 0b1100], 0b1111)
            >>> bin(values[compiled.slot_of["x"]])
            '0b110'
        """
        values = [0] * self.num_slots
        self._eval_into(values, input_words, mask)
        return values

    def _eval_into(
        self, values: list[int], input_words: Sequence[int], mask: int
    ) -> None:
        if len(input_words) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} input words, got {len(input_words)}"
            )
        for slot, word in enumerate(input_words):  # input slot i == i
            values[slot] = word & mask
        for op, out, operands in self._program:
            if op == _AND2:
                a, b = operands
                values[out] = values[a] & values[b]
            elif op == _NAND2:
                a, b = operands
                values[out] = (values[a] & values[b]) ^ mask
            elif op == _OR2:
                a, b = operands
                values[out] = values[a] | values[b]
            elif op == _NOR2:
                a, b = operands
                values[out] = (values[a] | values[b]) ^ mask
            elif op == _XOR2:
                a, b = operands
                values[out] = values[a] ^ values[b]
            elif op == _XNOR2:
                a, b = operands
                values[out] = values[a] ^ values[b] ^ mask
            elif op == _NOT:
                values[out] = values[operands] ^ mask
            elif op == _BUF:
                values[out] = values[operands]
            elif op == _MUX:
                s, d1, d0 = operands
                sel = values[s]
                values[out] = (sel & values[d1]) | ((sel ^ mask) & values[d0])
            elif op == _CONST0:
                values[out] = 0
            elif op == _CONST1:
                values[out] = mask
            elif op == _AND_N or op == _NAND_N:
                acc = mask
                for s in operands:
                    acc &= values[s]
                values[out] = acc if op == _AND_N else acc ^ mask
            elif op == _OR_N or op == _NOR_N:
                acc = 0
                for s in operands:
                    acc |= values[s]
                values[out] = acc if op == _OR_N else acc ^ mask
            else:  # _XOR_N / _XNOR_N
                acc = 0
                for s in operands:
                    acc ^= values[s]
                values[out] = acc if op == _XOR_N else acc ^ mask

    def eval_single(
        self, input_bits: Mapping[str, int] | Sequence[int]
    ) -> dict[str, int]:
        """One pattern, name-keyed result: output net -> bit.

        ``input_bits`` is a mapping from input name to 0/1 or a
        sequence aligned with :attr:`inputs`.  This is the shared
        normalization used by ``simulator.evaluate`` and
        ``Oracle.query``; keep validation and error wording here.
        """
        if isinstance(input_bits, Mapping):
            try:
                words = [input_bits[net] for net in self.inputs]
            except KeyError as exc:
                raise KeyError(
                    f"missing value for primary input {exc.args[0]!r}"
                ) from None
        else:
            if len(input_bits) != len(self.inputs):
                raise ValueError(
                    f"expected {len(self.inputs)} input bits, "
                    f"got {len(input_bits)}"
                )
            words = list(input_bits)
        return dict(zip(self.outputs, self.eval_outputs(words, 1)))

    def eval_outputs(self, input_words: Sequence[int], mask: int) -> list[int]:
        """Like :meth:`eval_words` but returns only primary-output words.

        Uses the preallocated scratch slot list — nothing escapes — so
        repeated calls allocate no per-call slot storage.
        """
        scratch = self._scratch
        self._eval_into(scratch, input_words, mask)
        return [scratch[s] for s in self.output_slots]

    def evaluate_pattern(self, pattern: int) -> int:
        """Single pattern, packed: bit *j* of ``pattern`` drives input *j*;
        bit *k* of the result is output *k*.

        Shares the preallocated scratch of :meth:`eval_outputs` — the
        unpacked input bits land in a reused word list, so repeated
        calls (the DIP loop queries one pattern per iteration) allocate
        no per-call storage.  ``benchmarks/test_bench_substrate.py``
        guards the per-call cost.
        """
        words = self._pattern_words
        for j in range(len(words)):
            words[j] = (pattern >> j) & 1
        scratch = self._scratch
        self._eval_into(scratch, words, 1)
        packed = 0
        for k, s in enumerate(self.output_slots):
            if scratch[s]:
                packed |= 1 << k
        return packed

    def eval_batch(self, patterns: Sequence[int]) -> list[int]:
        """Evaluate many packed patterns in one bit-parallel sweep.

        Pattern *p* occupies lane *p*; returns one packed output word
        per pattern (bit *k* = output *k*).
        """
        width = len(patterns)
        if width == 0:
            return []
        mask = (1 << width) - 1
        words = []
        for j in range(len(self.inputs)):
            word = 0
            for lane, pattern in enumerate(patterns):
                if (pattern >> j) & 1:
                    word |= 1 << lane
            words.append(word)
        scratch = self._scratch
        self._eval_into(scratch, words, mask)
        out_words = [scratch[s] for s in self.output_slots]
        results = []
        for lane in range(width):
            packed = 0
            for k, word in enumerate(out_words):
                if (word >> lane) & 1:
                    packed |= 1 << k
            results.append(packed)
        return results

    def eval_outputs_wide(
        self, input_words: Sequence[int], width: int
    ) -> list[int]:
        """Width-aware :meth:`eval_outputs`: ``width`` is the active
        lane count, and the mask is derived from it."""
        if width < 1:
            raise ValueError("width must be positive")
        return self.eval_outputs(input_words, (1 << width) - 1)

    def eval_mapping(self, stimuli: Mapping[str, int], mask: int) -> list[int]:
        """Evaluate name-keyed stimuli; returns the full slot list."""
        try:
            words = [stimuli[name] for name in self.inputs]
        except KeyError as exc:
            raise KeyError(
                f"missing value for primary input {exc.args[0]!r}"
            ) from None
        return self.eval_words(words, mask)

    def truth_table_words(self) -> list[int]:
        """Exhaustive sweep: one ``2**n``-bit word per primary output."""
        n = len(self.inputs)
        words = exhaustive_words(n)
        values = self.eval_words(words, (1 << (1 << n)) - 1)
        return [values[s] for s in self.output_slots]

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------
    def optimized(self) -> OptimizedCircuit:
        """The structurally optimized form of this circuit, cached.

        Returns the :class:`~repro.circuit.opt.OptimizedCircuit` of the
        one pipeline (see :mod:`repro.circuit.opt`), whose ``compiled``
        is parity-identical on the primary-output interface and whose
        provenance maps every original slot.  The result is computed
        once, so every consumer of a shared compiled circuit (oracle,
        encoder, miter) reuses the same optimization work and the same
        content hash.
        """
        if self._optimized is None:
            from repro.circuit.opt import optimize_compiled

            self._optimized = optimize_compiled(self)
        return self._optimized

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def _structure(self) -> tuple:
        return (
            self.inputs,
            self.outputs,
            tuple(
                (gtype.value, out, fanins)
                for gtype, out, fanins in zip(
                    self.gate_types, self.gate_output_slots, self.gate_fanin_slots
                )
            ),
        )

    def content_hash(self) -> str:
        """SHA-256 over the interned structure (stable across processes).

        Names of internal nets do not contribute — two netlists that
        intern to the same slot graph with the same interface hash
        identically — so the hash can key the runner's on-disk result
        cache without leaking gensym'd net names into cache identity.
        """
        cached = self._content_hash
        if cached is None:
            hasher = hashlib.sha256()
            hasher.update(repr(self._structure()).encode("utf-8"))
            cached = hasher.hexdigest()
            self._content_hash = cached
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledCircuit):
            return NotImplemented
        return self._structure() == other._structure()

    def __hash__(self) -> int:
        return hash(self._structure())

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={self.num_gates})"
        )


def _lower(gtype: GateType, out: int, fanins: tuple[int, ...]):
    """Lower one gate to an ``(opcode, out_slot, operands)`` triple."""
    if not valid_arity(gtype, len(fanins)):  # pragma: no cover - Gate validates
        raise CompileError(f"{gtype} with illegal arity {len(fanins)}")
    if gtype is GateType.MUX:
        return (_MUX, out, fanins)
    if gtype is GateType.CONST0:
        return (_CONST0, out, ())
    if gtype is GateType.CONST1:
        return (_CONST1, out, ())
    if len(fanins) == 1:
        return (_UNARY_OP[gtype], out, fanins[0])
    if len(fanins) == 2:
        return (_BINARY_OP[gtype], out, fanins)
    return (_NARY_OP[gtype], out, fanins)
