"""SARLock: SAT-attack-resistant logic locking [Yasin et al., HOST'16].

SARLock adds a point-function comparator: the flip signal is

    flip(i, k) = [i|_P == k] AND [k != k*]

where ``P`` is the set of protected primary inputs.  The flip is XORed
into one primary output.  Each wrong key corrupts exactly one input
pattern, so every SAT-attack DIP eliminates exactly one wrong key and
``#DIP`` grows as ``2^|K|`` — the paper's Table 1 uses this
determinism as a flow checker, and Fig. 1(a) is exactly this error
distribution for ``|I| = |K| = 3`` and ``k* = 101``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist, fresh_net_namer
from repro.locking.base import (
    LockedCircuit,
    LockingError,
    checked_taps,
    fresh_key_names,
    key_from_int,
)
from repro.locking.xor_lock import splice_gate


def sarlock_lock(
    netlist: Netlist,
    key_size: int,
    correct_key: int | Sequence[int] | None = None,
    protected_inputs: Sequence[str] | None = None,
    flip_output: str | None = None,
    seed: int = 0,
) -> LockedCircuit:
    """Lock ``netlist`` with a SARLock comparator.

    Args:
        netlist: Original circuit.
        key_size: Number of key bits (must not exceed the input count).
        correct_key: ``k*`` as an int or bit sequence; random if None.
        protected_inputs: The ``|K|`` primary inputs compared against
            the key; defaults to the first ``key_size`` inputs.
        flip_output: The primary output to corrupt; defaults to the
            first gate-driven output.
        seed: Randomness for the default correct key.
    """
    if key_size < 1:
        raise LockingError("key_size must be positive")
    if key_size > len(netlist.inputs):
        raise LockingError(
            f"key_size {key_size} exceeds {len(netlist.inputs)} primary inputs"
        )
    if protected_inputs is None:
        protected_inputs = list(netlist.inputs[:key_size])
    else:
        protected_inputs = checked_taps(
            protected_inputs, key_size, netlist.inputs, "protected inputs"
        )

    if correct_key is None:
        correct_key = tuple(random.Random(seed).getrandbits(1) for _ in range(key_size))
    elif isinstance(correct_key, int):
        correct_key = key_from_int(correct_key, key_size)
    else:
        correct_key = tuple(int(b) for b in correct_key)
        if len(correct_key) != key_size:
            raise LockingError("correct_key width does not match key_size")

    if flip_output is None:
        gate_driven = [o for o in netlist.outputs if o in netlist.gates]
        if not gate_driven:
            raise LockingError("no gate-driven primary output to corrupt")
        flip_output = gate_driven[0]
    elif flip_output not in netlist.gates:
        raise LockingError(f"flip output {flip_output!r} is not gate-driven")

    locked = netlist.copy(name=f"{netlist.name}_sarlock{key_size}")
    key_names = fresh_key_names(locked, key_size)
    locked.add_inputs(key_names)
    namer = fresh_net_namer(locked, "srl_")

    # match = AND_j XNOR(protected_j, key_j)       (i|_P == k)
    eq_nets = []
    for pin, key in zip(protected_inputs, key_names):
        eq = namer()
        locked.add_gate(eq, GateType.XNOR, [pin, key])
        eq_nets.append(eq)
    match = namer()
    locked.add_gate(match, GateType.AND, eq_nets)

    # wrong = NAND_j lit_j  where lit_j = key_j if k*_j else NOT key_j,
    # i.e. wrong == 1 iff k != k*.  The inversion pattern hardwires k*.
    mask_lits = []
    for key, bit in zip(key_names, correct_key):
        if bit:
            mask_lits.append(key)
        else:
            inv = namer()
            locked.add_gate(inv, GateType.NOT, [key])
            mask_lits.append(inv)
    wrong = namer()
    locked.add_gate(wrong, GateType.NAND, mask_lits)

    flip = namer()
    locked.add_gate(flip, GateType.AND, [match, wrong])
    splice_gate(locked, flip_output, GateType.XOR, [flip], namer)

    locked.validate()
    return LockedCircuit(
        netlist=locked,
        key_inputs=key_names,
        correct_key=correct_key,
        original_inputs=list(netlist.inputs),
        scheme="sarlock",
        meta={
            "protected_inputs": list(protected_inputs),
            "flip_output": flip_output,
        },
    )
