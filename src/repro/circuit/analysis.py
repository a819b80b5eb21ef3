"""Structural netlist analysis.

Includes the fan-out-cone statistics behind the paper's splitting-input
selection: *"determined through a fan-out cone analysis of the
netlist's input ports, prioritizing those with the most key-controlled
gates in their fan-out cones"* (§4).

Analyses of complete netlists run over the compiled arrays of
:meth:`Netlist.compile` — one cached topological sort shared with
simulation and CNF encoding instead of a fresh sort per query.  The
cone walks (:func:`fanin_cone`, :func:`fanout_cone`) also accept
netlists under construction (locking passes query cones mid-splice,
when a net may be temporarily undriven), falling back to the dict walk
unless a valid compiled form is already cached.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.circuit.compiled import CompiledCircuit
from repro.circuit.netlist import Netlist


def _cached_compiled(netlist: Netlist) -> CompiledCircuit | None:
    """The netlist's compiled form if (and only if) it is already cached
    and still valid — never triggers compilation."""
    cached = netlist._compiled
    if cached is not None and cached[0] == netlist._structure_guard():
        return cached[1]
    return None


def levelize(netlist: Netlist) -> dict[str, int]:
    """Topological level of every net (inputs are level 0)."""
    compiled = netlist.compile()
    return dict(zip(compiled.net_names, compiled.levels()))


def depth(netlist: Netlist) -> int:
    """Logic depth: maximum level over all nets."""
    levels = netlist.compile().levels()
    return max(levels, default=0)


def fanin_cone(netlist: Netlist, net: str) -> set[str]:
    """All nets in the transitive fanin of ``net`` (inclusive)."""
    compiled = _cached_compiled(netlist)
    if compiled is not None and net in compiled.slot_of:
        names = compiled.net_names
        return {
            names[s] for s in compiled.fanin_cone_slots(compiled.slot_of[net])
        }
    cone: set[str] = set()
    queue = deque([net])
    while queue:
        current = queue.popleft()
        if current in cone:
            continue
        cone.add(current)
        gate = netlist.gates.get(current)
        if gate is not None:
            queue.extend(gate.inputs)
    return cone


def fanout_cone(netlist: Netlist, net: str) -> set[str]:
    """All gate outputs transitively depending on ``net`` (exclusive)."""
    compiled = _cached_compiled(netlist)
    if compiled is not None and net in compiled.slot_of:
        names = compiled.net_names
        return {
            names[s] for s in compiled.fanout_cone_slots(compiled.slot_of[net])
        }
    fanout_map = netlist.fanouts()
    cone: set[str] = set()
    queue = deque(fanout_map.get(net, ()))
    while queue:
        current = queue.popleft()
        if current in cone:
            continue
        cone.add(current)
        queue.extend(fanout_map.get(current, ()))
    return cone


def rank_inputs_by_key_influence(
    netlist: Netlist,
    key_inputs: Sequence[str],
    candidates: Sequence[str] | None = None,
) -> list[tuple[str, int]]:
    """Rank candidate primary inputs by key-controlled gates in their fan-out.

    This is the paper's splitting-input heuristic.  ``candidates``
    defaults to every primary input that is not a key input.  Returns
    ``(input, count)`` pairs sorted by descending count, ties broken by
    input order for determinism.
    """
    key_set = set(key_inputs)
    if candidates is None:
        candidates = [net for net in netlist.inputs if net not in key_set]
    compiled = netlist.compile()
    slot_of = compiled.slot_of
    controlled = compiled.tainted_slots(slot_of[net] for net in key_inputs)
    # Key inputs themselves are tainted seeds, not controlled *gates*.
    for net in key_inputs:
        controlled[slot_of[net]] = False

    # One reverse sweep per candidate over the compiled fanout arrays is
    # simple and fast enough; the sizes here are ISCAS-class (hundreds
    # of PIs, thousands of gates).
    readers = compiled.fanout_slots()

    def count_controlled(net: str) -> int:
        seen = [False] * compiled.num_slots
        stack = list(readers[slot_of[net]])
        hits = 0
        while stack:
            current = stack.pop()
            if seen[current]:
                continue
            seen[current] = True
            if controlled[current]:
                hits += 1
            stack.extend(readers[current])
        return hits

    ranked = [(net, count_controlled(net)) for net in candidates]
    order = {net: i for i, net in enumerate(netlist.inputs)}
    ranked.sort(key=lambda pair: (-pair[1], order.get(pair[0], 0)))
    return ranked

