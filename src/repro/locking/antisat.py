"""Anti-SAT locking [Xie & Srivastava] — an extension beyond the paper.

The Anti-SAT block computes

    flip(x, ka, kb) = AND_j(x_j ^ ka_j)  AND  NAND_j(x_j ^ kb_j)

over ``n`` tapped signals.  Whenever ``ka == kb`` the two terms are
complementary and the flip is constantly 0 (any such key is correct);
otherwise the flip fires on exactly one input pattern (``x = !ka``),
like SARLock's point function.  Key size is ``2n``.

The paper's multi-key attack applies unchanged, which is why this
scheme is included: it demonstrates the attack beyond the two schemes
benchmarked in the paper.
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
)
from repro.locking.xor_lock import splice_gate


def antisat_lock(
    netlist: Netlist,
    n: int,
    tapped_inputs: Sequence[str] | None = None,
    flip_output: str | None = None,
    seed: int = 0,
) -> LockedCircuit:
    """Attach an Anti-SAT block of width ``n`` (key size ``2n``).

    The correct key stored in the result sets ``ka = kb`` to a random
    pattern; every key with ``ka == kb`` is equally correct.
    """
    if n < 1:
        raise LockingError("n must be positive")
    if n > len(netlist.inputs):
        raise LockingError(f"n {n} exceeds {len(netlist.inputs)} primary inputs")
    if tapped_inputs is None:
        tapped_inputs = list(netlist.inputs[:n])
    else:
        tapped_inputs = checked_taps(
            tapped_inputs, n, netlist.nets(), "tapped inputs"
        )

    if flip_output is None:
        gate_driven = [o for o in netlist.outputs if o in netlist.gates]
        if not gate_driven:
            raise LockingError("no gate-driven primary output to corrupt")
        flip_output = gate_driven[0]

    locked = netlist.copy(name=f"{netlist.name}_antisat{n}")
    key_names = fresh_key_names(locked, 2 * n)
    locked.add_inputs(key_names)
    ka, kb = key_names[:n], key_names[n:]
    namer = fresh_net_namer(locked, "asb_")

    xa_nets = []
    for tap, key in zip(tapped_inputs, ka):
        net = namer()
        locked.add_gate(net, GateType.XOR, [tap, key])
        xa_nets.append(net)
    g = namer()
    locked.add_gate(g, GateType.AND, xa_nets)

    xb_nets = []
    for tap, key in zip(tapped_inputs, kb):
        net = namer()
        locked.add_gate(net, GateType.XOR, [tap, key])
        xb_nets.append(net)
    gbar = namer()
    locked.add_gate(gbar, GateType.NAND, xb_nets)

    flip = namer()
    locked.add_gate(flip, GateType.AND, [g, gbar])
    splice_gate(locked, flip_output, GateType.XOR, [flip], namer)

    rng = random.Random(seed)
    half = tuple(rng.getrandbits(1) for _ in range(n))
    correct_key = half + half  # ka == kb

    locked.validate()
    return LockedCircuit(
        netlist=locked,
        key_inputs=key_names,
        correct_key=correct_key,
        original_inputs=list(netlist.inputs),
        scheme="antisat",
        meta={"tapped_inputs": list(tapped_inputs), "flip_output": flip_output},
    )
