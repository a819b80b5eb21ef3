"""The netlist intermediate representation.

A :class:`Netlist` is a purely combinational gate network over named
nets.  Primary inputs and gate outputs share one namespace; each net is
driven by exactly one source (an input declaration or one gate).

The IR is deliberately simple — a dict of :class:`Gate` keyed by output
net — and optimized for *construction*: locking schemes and synthesis
passes splice and rebuild it freely.  Every evaluation-heavy consumer
(simulation, oracle queries, CNF encoding, CEC, structural analysis)
goes through :meth:`Netlist.compile`, which lowers the netlist once
into an immutable :class:`repro.circuit.compiled.CompiledCircuit` and
caches it until the structure changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.circuit.gates import GateType, valid_arity

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.circuit.compiled import CompiledCircuit


class NetlistError(Exception):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = gtype(inputs)``."""

    output: str
    gtype: GateType
    inputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not valid_arity(self.gtype, len(self.inputs)):
            raise NetlistError(
                f"{self.gtype} gate {self.output!r} has illegal arity "
                f"{len(self.inputs)}"
            )


@dataclass
class Netlist:
    """A combinational circuit.

    Attributes:
        name: Human-readable circuit name.
        inputs: Ordered primary-input net names.
        outputs: Ordered primary-output net names (must be driven).
        gates: Gate instances keyed by their output net.
    """

    name: str = "circuit"
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)

    # Compile cache: (structure guard, CompiledCircuit).  Not a dataclass
    # field, so copies and dataclass equality never see it.
    _compiled = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> str:
        """Declare ``net`` as a primary input; returns the net name."""
        if net in self.gates:
            raise NetlistError(f"net {net!r} already driven by a gate")
        if net in self.inputs:
            raise NetlistError(f"duplicate input {net!r}")
        self._compiled = None
        self.inputs.append(net)
        return net

    def add_inputs(self, nets: Iterable[str]) -> list[str]:
        """Declare several primary inputs; returns the net names."""
        return [self.add_input(net) for net in nets]

    def add_gate(self, output: str, gtype: GateType, inputs: Sequence[str]) -> str:
        """Add ``output = gtype(inputs)`` and return the output net."""
        if output in self.gates:
            raise NetlistError(f"net {output!r} already driven by a gate")
        if output in self.inputs:
            raise NetlistError(f"net {output!r} is a primary input")
        self._compiled = None
        self.gates[output] = Gate(output, gtype, tuple(inputs))
        return output

    def set_outputs(self, nets: Iterable[str]) -> None:
        """Replace the primary-output list with ``nets`` (in order)."""
        self._compiled = None
        self.outputs = list(nets)

    def add_output(self, net: str) -> str:
        """Append ``net`` to the primary outputs; returns the net name."""
        self._compiled = None
        self.outputs.append(net)
        return net

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def nets(self) -> list[str]:
        """All nets: inputs first, then gate outputs (insertion order)."""
        return list(self.inputs) + list(self.gates)

    def is_driven(self, net: str) -> bool:
        """True when ``net`` is a primary input or some gate's output."""
        return net in self.gates or net in self.inputs

    def driver(self, net: str) -> Gate | None:
        """The gate driving ``net``, or None for primary inputs."""
        return self.gates.get(net)

    def fanouts(self) -> dict[str, list[str]]:
        """Map each net to the list of gate outputs it feeds."""
        result: dict[str, list[str]] = {net: [] for net in self.nets()}
        for gate in self.gates.values():
            for src in gate.inputs:
                result.setdefault(src, []).append(gate.output)
        return result

    def gate_type_histogram(self) -> dict[str, int]:
        """Count gates per type name (e.g. ``{"AND": 12, "NOT": 3}``)."""
        histogram: dict[str, int] = {}
        for gate in self.gates.values():
            histogram[gate.gtype.value] = histogram.get(gate.gtype.value, 0) + 1
        return histogram

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling nets, bad outputs or cycles."""
        for gate in self.gates.values():
            for src in gate.inputs:
                if not self.is_driven(src):
                    raise NetlistError(
                        f"gate {gate.output!r} reads undriven net {src!r}"
                    )
        for net in self.outputs:
            if not self.is_driven(net):
                raise NetlistError(f"primary output {net!r} is undriven")
        self.topological_order()  # raises on combinational loops

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _structure_guard(self) -> tuple:
        """Cheap fingerprint used to invalidate the compile cache.

        Mutations through the construction API invalidate eagerly; this
        guard additionally catches direct mutation of ``inputs``,
        ``outputs`` or ``gates`` that changes a length or the last
        inserted gate.  Code that *replaces* a gate in place (same key,
        same count) on a netlist that may already be compiled must call
        :meth:`invalidate_compiled` explicitly.
        """
        last_gate = next(reversed(self.gates)) if self.gates else None
        return (
            len(self.inputs),
            len(self.gates),
            len(self.outputs),
            last_gate,
            self.outputs[-1] if self.outputs else None,
        )

    def compile(self) -> "CompiledCircuit":
        """The integer-indexed evaluation form of this netlist, cached.

        The result is immutable and shared: simulation, oracle queries,
        CNF encoding, CEC and structural analysis all evaluate through
        it, and its content hash can key result caches.  The cache is
        invalidated by any structural change made through the
        construction API (see :meth:`_structure_guard` for the rules on
        direct mutation).
        """
        guard = self._structure_guard()
        cached = self._compiled
        if cached is not None and cached[0] == guard:
            return cached[1]
        from repro.circuit.compiled import CompiledCircuit

        compiled = CompiledCircuit(self)
        self._compiled = (guard, compiled)
        return compiled

    def adopt_compiled(self, compiled: "CompiledCircuit") -> None:
        """Seed the compile cache with ``compiled``, a compiled form of
        this very netlist: one from another process (pickling drops
        it), or the shared form a carrier memo hands to each copy."""
        self._compiled = (self._structure_guard(), compiled)

    def invalidate_compiled(self) -> None:
        """Drop the compile cache after direct structural mutation."""
        self._compiled = None

    def __getstate__(self) -> dict:
        """Pickle without the compile cache (worker processes recompile);
        keeps runner task payloads lean."""
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state

    # ------------------------------------------------------------------
    # Ordering
    # ------------------------------------------------------------------
    def topological_order(self) -> list[Gate]:
        """Gates sorted so every gate follows its fanins.

        Raises :class:`NetlistError` if the netlist has a cycle.  When a
        valid compiled form is cached, its stored order is reused
        instead of re-sorting.
        """
        cached = self._compiled
        if cached is not None and cached[0] == self._structure_guard():
            return list(cached[1].gates)
        order: list[Gate] = []
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        for net in self.inputs:
            state[net] = 1
        stack: list[tuple[str, int]] = []
        for root in self.gates:
            if state.get(root) == 1:
                continue
            stack.append((root, 0))
            while stack:
                net, child_idx = stack[-1]
                gate = self.gates.get(net)
                if gate is None:  # undriven net: treated as leaf here
                    state[net] = 1
                    stack.pop()
                    continue
                if child_idx == 0:
                    if state.get(net) == 0:
                        raise NetlistError(f"combinational loop through {net!r}")
                    state[net] = 0
                advanced = False
                for i in range(child_idx, len(gate.inputs)):
                    src = gate.inputs[i]
                    src_state = state.get(src)
                    if src_state == 0:
                        raise NetlistError(f"combinational loop through {src!r}")
                    if src_state is None:
                        stack[-1] = (net, i + 1)
                        stack.append((src, 0))
                        advanced = True
                        break
                if advanced:
                    continue
                state[net] = 1
                order.append(gate)
                stack.pop()
        return order

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Shallow structural copy (gates are immutable, so this is safe)."""
        dup = Netlist(
            name=name or self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            gates=dict(self.gates),
        )
        return dup

    def renamed(self, prefix: str, keep_inputs: Iterable[str] = ()) -> "Netlist":
        """Return a copy with every net (except ``keep_inputs``) prefixed.

        Used to instantiate multiple copies of a circuit side by side
        (e.g. the two halves of a miter) without name collisions.
        """
        keep = set(keep_inputs)

        def rn(net: str) -> str:
            return net if net in keep else prefix + net

        dup = Netlist(name=prefix + self.name)
        dup.inputs = [rn(net) for net in self.inputs]
        dup.outputs = [rn(net) for net in self.outputs]
        for gate in self.gates.values():
            dup.gates[rn(gate.output)] = Gate(
                rn(gate.output), gate.gtype, tuple(rn(s) for s in gate.inputs)
            )
        return dup

    def merged_with(self, other: "Netlist", name: str = "merged") -> "Netlist":
        """Union of two netlists sharing identically named nets.

        Nets driven in both netlists must not conflict; shared inputs
        are unified.
        """
        merged = Netlist(name=name)
        merged.inputs = list(self.inputs)
        for net in other.inputs:
            if net not in merged.inputs and net not in self.gates:
                merged.inputs.append(net)
        merged.gates = dict(self.gates)
        for net, gate in other.gates.items():
            if net in merged.gates:
                if merged.gates[net] != gate:
                    raise NetlistError(f"conflicting drivers for {net!r}")
                continue
            if net in merged.inputs:
                raise NetlistError(f"net {net!r} is input in one, gate in other")
            merged.gates[net] = gate
        merged.outputs = list(self.outputs) + [
            net for net in other.outputs if net not in self.outputs
        ]
        return merged

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self.gates)})"
        )


def fresh_net_namer(netlist: Netlist, stem: str):
    """Return a callable yielding net names not present in ``netlist``.

    The namer only checks against nets present when it was created plus
    the names it has handed out, so create it after the netlist is
    fully built.
    """
    used = set(netlist.nets())
    counter = 0

    def next_name() -> str:
        nonlocal counter
        while True:
            candidate = f"{stem}{counter}"
            counter += 1
            if candidate not in used:
                used.add(candidate)
                return candidate

    return next_name
