"""Bit-parallel netlist simulation.

Nets carry Python integers used as bit vectors: lane *i* of every net
is one simulation pattern.  Because Python integers are arbitrary
precision, exhaustively simulating a 20-input circuit is a single
sweep with 2**20-bit lanes and one big-int operation per gate.

The public functions are thin mapping-based wrappers over the compiled
evaluation core (:meth:`Netlist.compile`): the netlist is lowered once
to an integer-indexed :class:`repro.circuit.compiled.CompiledCircuit`
and every call evaluates over flat slot arrays instead of re-sorting
and dict-walking the netlist.  :func:`simulate_reference` keeps the
original dict-walk implementation as the independent parity baseline
(and as the "legacy" side of ``benchmarks/test_bench_sim.py``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuit.gates import eval_gate
from repro.circuit.netlist import Netlist


def simulate(
    netlist: Netlist, input_values: Mapping[str, int], width: int = 1
) -> dict[str, int]:
    """Simulate ``width`` parallel patterns.

    ``input_values`` maps every primary input to an integer whose low
    ``width`` bits are the per-pattern values.  Returns the value of
    every net.
    """
    if width < 1:
        raise ValueError("width must be positive")
    compiled = netlist.compile()
    values = compiled.eval_mapping(input_values, (1 << width) - 1)
    return dict(zip(compiled.net_names, values))


def simulate_reference(
    netlist: Netlist, input_values: Mapping[str, int], width: int = 1
) -> dict[str, int]:
    """The original per-gate dict-walk simulator.

    Functionally identical to :func:`simulate` but re-sorts the netlist
    and walks string-keyed dicts on every call.  Kept as the
    independent implementation that property tests and the simulation
    benchmark compare the compiled core against.
    """
    if width < 1:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    values: dict[str, int] = {}
    for net in netlist.inputs:
        if net not in input_values:
            raise KeyError(f"missing value for primary input {net!r}")
        values[net] = input_values[net] & mask
    for gate in netlist.topological_order():
        values[gate.output] = eval_gate(
            gate.gtype, [values[src] for src in gate.inputs], mask
        )
    return values


def evaluate(
    netlist: Netlist, input_bits: Mapping[str, int] | Sequence[int]
) -> dict[str, int]:
    """Single-pattern simulation returning only primary-output values.

    ``input_bits`` is either a mapping from input name to 0/1 or a
    sequence aligned with ``netlist.inputs``.
    """
    return netlist.compile().eval_single(input_bits)


def truth_table(netlist: Netlist) -> dict[str, int]:
    """Exhaustive simulation: each output as a 2**n-bit truth table.

    Bit ``p`` of the result is the output under input pattern ``p``,
    where bit *j* of ``p`` is the value of ``netlist.inputs[j]``.
    """
    compiled = netlist.compile()
    return dict(zip(compiled.outputs, compiled.truth_table_words()))


def random_patterns(num_inputs: int, width: int, seed: int = 0) -> list[int]:
    """``width`` random parallel patterns for each of ``num_inputs`` inputs."""
    import random

    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(num_inputs)]


def random_stimuli_words(
    inputs: Sequence[str],
    num_lanes: int,
    rng,
    pin: Mapping[str, bool] | None = None,
) -> dict[str, int]:
    """Lane-transposed random single-bit stimuli: input name -> word.

    Draws one bit per (lane, input) in lane-major order — the same RNG
    stream as a historical per-pattern ``{net: rng.getrandbits(1)}``
    loop — so batched callers stay seed-for-seed compatible with their
    per-pattern predecessors.  ``pin`` overrides named inputs with
    constants; the pinned position still consumes a draw, again to
    preserve the stream.
    """
    pin = pin or {}
    words = {net: 0 for net in inputs}
    for lane in range(num_lanes):
        for net in inputs:
            bit = rng.getrandbits(1)
            if net in pin:
                bit = int(pin[net])
            if bit:
                words[net] |= 1 << lane
    return words
