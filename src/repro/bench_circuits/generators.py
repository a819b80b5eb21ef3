"""Parametric generators for complete benchmark circuits."""

from __future__ import annotations

from repro.bench_circuits.blocks import BlockBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist


def _inputs(netlist: Netlist, stem: str, width: int) -> list[str]:
    return netlist.add_inputs([f"{stem}{i}" for i in range(width)])


def ripple_carry_adder(width: int, name: str | None = None) -> Netlist:
    """``width``-bit adder with carry-in/out (sum0 is the LSB)."""
    netlist = Netlist(name or f"rca{width}")
    a = _inputs(netlist, "a", width)
    b = _inputs(netlist, "b", width)
    cin = netlist.add_input("cin")
    bb = BlockBuilder(netlist, "add")
    sums, cout = bb.ripple_adder(a, b, cin)
    out_names = []
    for i, s in enumerate(sums):
        out = f"sum{i}"
        netlist.add_gate(out, GateType.BUF, [s])
        out_names.append(out)
    netlist.add_gate("cout", GateType.BUF, [cout])
    netlist.set_outputs(out_names + ["cout"])
    netlist.validate()
    return netlist


def array_multiplier(width: int, name: str | None = None) -> Netlist:
    """``width x width`` unsigned array multiplier (the c6288 function).

    Built exactly the way c6288 is: an AND-gate partial-product array
    reduced by carry-save adder rows.  At ``width=16`` the gate count
    lands in the same class as the real c6288 (~2400 gates).
    """
    netlist = Netlist(name or f"mul{width}")
    a = _inputs(netlist, "a", width)
    b = _inputs(netlist, "b", width)
    bb = BlockBuilder(netlist, "mul")

    # Partial products pp[i][j] = a[j] & b[i], weight i + j.
    rows = [
        [bb.gate(GateType.AND, [a[j], b[i]], f"pp{i}_") for j in range(width)]
        for i in range(width)
    ]

    # Accumulate row by row with ripple adders (carry-propagate array).
    acc = rows[0]  # weights 0 .. width-1
    result = [acc[0]]
    acc = acc[1:]
    for i in range(1, width):
        padded = acc + []
        row = rows[i]
        # Align: acc covers weights i .. i+width-2; row covers i .. i+width-1.
        carry: str | None = None
        new_acc = []
        for j in range(width):
            x = row[j]
            y = padded[j] if j < len(padded) else None
            if y is None and carry is None:
                new_acc.append(x)
            elif y is None:
                s, carry = bb.half_adder(x, carry)
                new_acc.append(s)
            elif carry is None:
                s, carry = bb.half_adder(x, y)
                new_acc.append(s)
            else:
                s, carry = bb.full_adder(x, y, carry)
                new_acc.append(s)
        if carry is not None:
            new_acc.append(carry)
        result.append(new_acc[0])
        acc = new_acc[1:]
    result.extend(acc)

    outputs = []
    for i, net in enumerate(result[: 2 * width]):
        out = f"p{i}"
        netlist.add_gate(out, GateType.BUF, [net])
        outputs.append(out)
    netlist.set_outputs(outputs)
    netlist.validate()
    return netlist


def simple_alu(
    width: int,
    select_bits: int = 3,
    with_flags: bool = True,
    name: str | None = None,
    extra_controls: int = 0,
) -> Netlist:
    """A ``width``-bit ALU: add/sub/and/or/xor/not/shift/pass.

    ``extra_controls`` appends enable/mask inputs that gate the result
    word — a cheap way to match the wide control interfaces of the
    ISCAS ALU benchmarks while keeping every input observable.
    """
    if select_bits < 3:
        raise ValueError("need at least 3 select bits for 8 operations")
    netlist = Netlist(name or f"alu{width}")
    a = _inputs(netlist, "a", width)
    b = _inputs(netlist, "b", width)
    op = _inputs(netlist, "op", select_bits)
    cin = netlist.add_input("cin")
    masks = _inputs(netlist, "en", extra_controls) if extra_controls else []
    bb = BlockBuilder(netlist, "alu")

    add_s, add_c = bb.ripple_adder(a, b, cin)
    nb = bb.word_not(b)
    sub_s, sub_c = bb.ripple_adder(a, nb, bb.gate(GateType.OR, [cin, cin], "one"))
    # subtraction uses cin as forced-1 borrow stand-in to keep cin observable
    and_w = bb.word_op(GateType.AND, a, b)
    or_w = bb.word_op(GateType.OR, a, b)
    xor_w = bb.word_op(GateType.XOR, a, b)
    not_w = bb.word_not(a)
    shl_w = [cin] + a[:-1]  # shift left in cin
    pass_w = list(b)

    sel = bb.decoder(op[:3])
    lanes = [add_s, sub_s, and_w, or_w, xor_w, not_w, shl_w, pass_w]
    result = []
    for i in range(width):
        picked = [
            bb.gate(GateType.AND, [sel[k], lanes[k][i]], "pk")
            for k in range(8)
        ]
        bit = bb.reduce(GateType.OR, picked)
        for mask in masks:
            bit = bb.gate(GateType.AND, [bit, mask], "mk")
        result.append(bit)

    outputs = []
    for i, net in enumerate(result):
        out = f"f{i}"
        netlist.add_gate(out, GateType.BUF, [net])
        outputs.append(out)
    if with_flags:
        # NOR does not tree-compose; reduce with OR and invert once.
        any_set = bb.reduce(GateType.OR, result)
        zero = bb.gate(GateType.NOT, [any_set], "z")
        netlist.add_gate("zero", GateType.BUF, [zero])
        carry = bb.mux2(sel[1], sub_c, add_c)
        netlist.add_gate("carry", GateType.BUF, [carry])
        parity = bb.parity(result)
        netlist.add_gate("parity", GateType.BUF, [parity])
        outputs += ["zero", "carry", "parity"]
    netlist.set_outputs(outputs)
    netlist.validate()
    return netlist


def hamming_sec_corrector(
    data_width: int,
    check_bits: int | None = None,
    name: str | None = None,
    nand_style: bool = False,
) -> Netlist:
    """Single-error-correcting decoder (the c499/c1355 function family).

    Inputs are ``data_width`` data bits plus ``check_bits`` received
    check bits; outputs are the corrected data word.  The syndrome is
    recomputed from the data, XORed with the received check bits and
    decoded to flip the erroneous bit.  With ``nand_style=True`` the
    XOR trees are expanded to NAND structures, mirroring how c1355 is
    c499 with XORs dissolved into NANDs.
    """
    if check_bits is None:
        check_bits = max(2, (data_width - 1).bit_length() + 1)
    netlist = Netlist(name or f"sec{data_width}")
    data = _inputs(netlist, "d", data_width)
    recv = _inputs(netlist, "c", check_bits)
    bb = BlockBuilder(netlist, "sec")

    # Syndrome bit j = parity of data bits whose index has bit j set
    # (a Hamming-style parity-check matrix).
    syndrome = []
    for j in range(check_bits):
        taps = [
            data[i] for i in range(data_width) if ((i + 1) >> j) & 1
        ] or [data[0]]
        recomputed = bb.parity(taps)
        syndrome.append(bb.gate(GateType.XOR, [recomputed, recv[j]], f"sy{j}_"))

    select = bb.decoder(syndrome[: min(check_bits, 10)])
    outputs = []
    for i in range(data_width):
        flip = select[(i + 1) % len(select)]
        out = f"q{i}"
        netlist.add_gate(out, GateType.XOR, [data[i], flip])
        outputs.append(out)
    netlist.set_outputs(outputs)
    netlist.validate()
    if nand_style:
        netlist = expand_xor_to_nand(netlist)
    return netlist


def priority_controller(
    channels: int, width: int, name: str | None = None
) -> Netlist:
    """Interrupt-controller-style circuit (the c432 function family).

    ``channels`` request words of ``width`` bits are masked by enable
    words; a priority encoder grants the lowest active channel and the
    grant vector plus summary outputs are exposed.
    """
    netlist = Netlist(name or f"prio{channels}x{width}")
    requests = [_inputs(netlist, f"r{c}_", width) for c in range(channels)]
    enables = [_inputs(netlist, f"e{c}_", width) for c in range(channels)]
    bb = BlockBuilder(netlist, "pr")

    active = []
    for req, en in zip(requests, enables):
        masked = bb.word_op(GateType.AND, req, en)
        active.append(bb.reduce(GateType.OR, masked))
    grants = bb.priority_encoder(active)

    outputs = []
    for c, grant in enumerate(grants):
        out = f"g{c}"
        netlist.add_gate(out, GateType.BUF, [grant])
        outputs.append(out)
    netlist.add_gate("any", GateType.OR, [f"g{c}" for c in range(channels)])
    outputs.append("any")
    netlist.set_outputs(outputs)
    netlist.validate()
    return netlist


def keyed_match_plane(
    terms: int = 768,
    taps: int = 16,
    bus: int = 64,
    seed: int = 7,
    name: str | None = None,
) -> Netlist:
    """Wide, shallow keyed match/decode fabric (PLA-plane shape).

    The SARLock/Anti-SAT point-function comparator — ``AND`` over
    ``XNOR(x_i, k_i)`` taps — replicated as ``terms`` parallel product
    terms over a shared ``bus``-bit data bus and ``bus``-bit key bus,
    with an OR-plane summarizing the match lines.  Each term compares
    ``taps`` pseudo-random (data bit, key bit) pairs; the reductions
    use alternating NAND/NOR planes, the standard-cell mapping of
    AND/OR trees (inverting gates are the cheap ones in CMOS).

    Its replicated comparator taps, BUF/NOT chains and structurally
    identical product terms are the optimizer's workload in
    ``benchmarks/test_bench_opt.py``.
    """
    from repro.rng import make_rng

    rng = make_rng(seed)
    netlist = Netlist(name or f"match{terms}x{taps}")
    x = _inputs(netlist, "x", bus)
    k = _inputs(netlist, "k", bus)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"mp{counter}"

    def inverting_reduce(nets: list[str], first: GateType) -> list[list[str]]:
        """Pairwise-reduce with alternating NAND/NOR planes.

        Two consecutive inverting planes compute one non-inverting
        reduction level (De Morgan), so starting from NAND this is an
        AND tree and from NOR an OR tree.  Odd leftovers are re-gated
        alone (a two-tied-input NAND/NOR is an inverter) to keep every
        net of a plane at the same inversion phase.  Returns the list
        of planes, narrowest last.
        """
        other = GateType.NOR if first is GateType.NAND else GateType.NAND
        planes = []
        cur = nets
        depth = 0
        while len(cur) > 1:
            kind = first if depth % 2 == 0 else other
            nxt = []
            for i in range(0, len(cur) - 1, 2):
                g = fresh()
                netlist.add_gate(g, kind, [cur[i], cur[i + 1]])
                nxt.append(g)
            if len(cur) % 2:
                g = fresh()
                netlist.add_gate(g, kind, [cur[-1], cur[-1]])
                nxt.append(g)
            planes.append(nxt)
            cur = nxt
            depth += 1
        if depth % 2:  # odd plane count: the tree is still inverted
            g = fresh()
            netlist.add_gate(g, other, [cur[0], cur[0]])
            planes.append([g])
        return planes

    lines = []
    for _ in range(terms):
        tap_nets = []
        for _ in range(taps):
            g = fresh()
            netlist.add_gate(
                g, GateType.XNOR, [rng.choice(x), rng.choice(k)]
            )
            tap_nets.append(g)
        lines.append(inverting_reduce(tap_nets, GateType.NAND)[-1][0])

    or_planes = inverting_reduce(lines, GateType.NOR)
    group = next((p for p in or_planes if len(p) <= 96), or_planes[-1])
    outputs = []
    for i, net in enumerate(group):
        out = f"m{i}"
        netlist.add_gate(out, GateType.BUF, [net])
        outputs.append(out)
    netlist.add_gate("hit", GateType.BUF, [or_planes[-1][-1]])
    netlist.set_outputs(outputs + ["hit"])
    netlist.validate()
    return netlist


def expand_xor_to_nand(netlist: Netlist) -> Netlist:
    """Dissolve 2-input XOR/XNOR gates into 4-NAND structures.

    ``XOR(a,b) = NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b)))``; wider
    XORs are first chained pairwise.  This mirrors the relationship
    between c499 (XOR-rich) and c1355 (NAND-only, same function).
    """
    from repro.circuit.netlist import Gate, fresh_net_namer

    result = Netlist(name=f"{netlist.name}_nand")
    result.inputs = list(netlist.inputs)
    namer = fresh_net_namer(netlist, "xn_")

    def emit_xor2(out: str, a: str, b: str, invert: bool) -> None:
        mid = namer()
        result.gates[mid] = Gate(mid, GateType.NAND, (a, b))
        left = namer()
        result.gates[left] = Gate(left, GateType.NAND, (a, mid))
        right = namer()
        result.gates[right] = Gate(right, GateType.NAND, (b, mid))
        gtype = GateType.AND if invert else GateType.NAND
        result.gates[out] = Gate(out, gtype, (left, right))

    for gate in netlist.topological_order():
        if gate.gtype not in (GateType.XOR, GateType.XNOR) or len(gate.inputs) < 2:
            result.gates[gate.output] = gate
            continue
        invert = gate.gtype is GateType.XNOR
        acc = gate.inputs[0]
        for mid_input in gate.inputs[1:-1]:
            nxt = namer()
            emit_xor2(nxt, acc, mid_input, False)
            acc = nxt
        emit_xor2(gate.output, acc, gate.inputs[-1], invert)
    result.set_outputs(list(netlist.outputs))
    result.validate()
    return result
