"""Common machinery for locked circuits and keys.

Notation follows the paper: the original circuit ``C`` computes
``f : B^|I| -> B^|O|``; the locked circuit ``C_l`` computes
``f_l : B^|I| x B^|K| -> B^|O|``; the correct key ``k*`` satisfies
``f_l(i, k*) = f(i)`` for every input ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Container, Mapping, Sequence

from repro.circuit.equivalence import EquivalenceResult, check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist


class LockingError(Exception):
    """A locking scheme could not be applied to the given circuit."""


def checked_taps(
    taps: Sequence[str], count: int, known: Container[str], role: str
) -> list[str]:
    """``taps`` as a list of ``count`` distinct nets of ``known``."""
    taps = list(taps)
    unknown = [net for net in taps if net not in known]
    if unknown:
        raise LockingError(f"{role} not in circuit: {unknown}")
    if len(set(taps)) != len(taps):
        raise LockingError(f"{role} repeat a net: {taps}")
    if len(taps) != count:
        raise LockingError(f"need exactly {count} {role}")
    return taps


def key_from_int(value: int, width: int) -> tuple[int, ...]:
    """Unpack an integer key; bit ``j`` of ``value`` is key port ``j``."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"key {value} does not fit in {width} bits")
    return tuple((value >> j) & 1 for j in range(width))


def key_to_int(bits: Sequence[int]) -> int:
    """Pack a bit tuple into an integer (bit ``j`` = key port ``j``)."""
    return sum((1 << j) for j, bit in enumerate(bits) if bit)


@dataclass
class LockedCircuit:
    """A locked netlist together with its key interface.

    The locked netlist's primary inputs are ``original_inputs``
    followed by ``key_inputs``; output names are identical to the
    original circuit's so oracle responses line up net-for-net.
    """

    netlist: Netlist
    key_inputs: list[str]
    correct_key: tuple[int, ...]
    original_inputs: list[str]
    scheme: str = "generic"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.correct_key) != len(self.key_inputs):
            raise LockingError(
                f"correct key has {len(self.correct_key)} bits for "
                f"{len(self.key_inputs)} key ports"
            )
        missing = [
            net
            for net in self.key_inputs + self.original_inputs
            if net not in self.netlist.inputs
        ]
        if missing:
            raise LockingError(f"nets missing from locked netlist: {missing}")

    @property
    def key_size(self) -> int:
        return len(self.key_inputs)

    @property
    def correct_key_int(self) -> int:
        return key_to_int(self.correct_key)

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    def key_assignment(
        self, key: int | Sequence[int] | Mapping[str, bool | int]
    ) -> dict[str, bool]:
        """Normalize any key representation to a port->bool mapping."""
        if isinstance(key, Mapping):
            return {net: bool(key[net]) for net in self.key_inputs}
        if isinstance(key, int):
            key = key_from_int(key, self.key_size)
        if len(key) != self.key_size:
            raise ValueError(
                f"expected {self.key_size} key bits, got {len(key)}"
            )
        return {net: bool(bit) for net, bit in zip(self.key_inputs, key)}

    def apply_key(self, key: int | Sequence[int] | Mapping[str, bool]) -> Netlist:
        """The unlocked netlist under ``key``: key ports tied off.

        Each key port leaves the input list and its net is driven by a
        CONST gate under the port's own name; no logic is folded.  The
        result has exactly the original circuit's interface, so it can
        be equivalence-checked against the original directly.
        """
        pins = self.key_assignment(key)
        keyed = self.netlist.copy(name=f"{self.netlist.name}@key")
        keyed.inputs = [net for net in keyed.inputs if net not in pins]
        for net, value in pins.items():
            keyed.add_gate(net, GateType.CONST1 if value else GateType.CONST0, [])
        return keyed

    def verify_key(
        self, original: Netlist, key: int | Sequence[int] | Mapping[str, bool]
    ) -> EquivalenceResult:
        """CEC the keyed circuit against the original."""
        return check_equivalence(self.apply_key(key), original)

    def is_correct_interface(self, original: Netlist) -> bool:
        """Locked and original circuits agree on ports (minus the key)."""
        return (
            set(self.original_inputs) == set(original.inputs)
            and set(self.netlist.outputs) == set(original.outputs)
        )

    def __repr__(self) -> str:
        return (
            f"LockedCircuit({self.scheme}, |I|={len(self.original_inputs)}, "
            f"|K|={self.key_size}, gates={self.netlist.num_gates})"
        )


def fresh_key_names(netlist: Netlist, width: int, stem: str = "keyinput") -> list[str]:
    """Key-port names that do not collide with existing nets."""
    used = set(netlist.nets())
    names = []
    counter = 0
    while len(names) < width:
        candidate = f"{stem}{counter}"
        counter += 1
        if candidate not in used:
            names.append(candidate)
    return names
