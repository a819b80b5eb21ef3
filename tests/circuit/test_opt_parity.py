"""Optimizer hand-off parity: slot arrays versus a netlist round trip.

:mod:`repro.circuit.opt` hands each pass's result to the next as slot
arrays and builds one compiled circuit at the end.  This module keeps
the straightforward version as a test-local reference: after every
pass, rebuild a :class:`Netlist` from the kept gates and compile it
again.  Both run the same pass rules, so any difference is in the
hand-off — numbering, net names, constant nets, output drivers,
provenance, the fixpoint test — and every field that reaches a
consumer is compared: content hash, gates, net names, provenance,
``passes``, ``stats`` and :func:`synthesize`'s netlist.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.synth.optimize as synth_optimize
from repro.bench_circuits.corpus import circuit_names, resolve_circuit
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.opt import (
    _MAX_ROUNDS,
    _PASS_RULES,
    _PIPELINES,
    PASS_NAMES,
    OptimizedCircuit,
    optimize_compiled,
    resolve_opt,
    run_pass,
)
from repro.circuit.random_circuits import random_netlist
from repro.locking.registry import lock_circuit
from repro.synth.optimize import synthesize


@pytest.fixture(autouse=True)
def _clean_lever(monkeypatch):
    monkeypatch.delenv("REPRO_OPT", raising=False)


# ----------------------------------------------------------------------
# Reference: one Netlist materialization and compile per pass
# ----------------------------------------------------------------------


def _reference_materialize(compiled, canon, keep, prune) -> Netlist:
    names = compiled.net_names
    slot_of = compiled.slot_of

    if prune:
        kept_by_out = {out: (gtype, vals) for out, gtype, vals in keep}
        needed: set[int] = set()
        stack = []
        for po in compiled.outputs:
            val = canon[slot_of[po]]
            if val[0] == "slot":
                stack.append(val[1])
        while stack:
            root = stack.pop()
            if root in needed:
                continue
            needed.add(root)
            entry = kept_by_out.get(root)
            if entry is None:
                continue
            for kind, payload in entry[1]:
                if kind == "slot":
                    stack.append(payload)
        keep = [item for item in keep if item[0] in needed]

    netlist = Netlist(name=compiled.name)
    for net in compiled.inputs:
        netlist.add_input(net)

    used = set(compiled.inputs)
    used.update(names[out] for out, _, _ in keep)
    used.update(compiled.outputs)
    const_nets: dict[int, str] = {}

    def const_net(bit: int) -> str:
        net = const_nets.get(bit)
        if net is None:
            net = f"_opt_const{bit}"
            while net in used:
                net += "_"
            used.add(net)
            netlist.add_gate(
                net, GateType.CONST1 if bit else GateType.CONST0, []
            )
            const_nets[bit] = net
        return net

    def val_net(val: tuple) -> str:
        kind, payload = val
        return const_net(payload) if kind == "const" else names[payload]

    for out, gtype, vals in keep:
        netlist.add_gate(names[out], gtype, [val_net(v) for v in vals])

    for po in compiled.outputs:
        if netlist.is_driven(po):
            continue
        val = canon[slot_of[po]]
        if val[0] == "const":
            netlist.add_gate(
                po, GateType.CONST1 if val[1] else GateType.CONST0, []
            )
        else:
            netlist.add_gate(po, GateType.BUF, [names[val[1]]])
    netlist.set_outputs(compiled.outputs)
    return netlist


def _reference_coi_rules(compiled, canon, keep):
    """Identity rewrite; the materialization prunes."""
    for gtype, out, fanins in zip(
        compiled.gate_types, compiled.gate_output_slots, compiled.gate_fanin_slots
    ):
        keep.append((out, gtype, tuple(canon[s] for s in fanins)))
        canon[out] = ("slot", out)


def _reference_pass(compiled, name: str) -> OptimizedCircuit:
    canon = [("slot", s) for s in range(compiled.num_slots)]
    keep: list[tuple] = []
    rules = _reference_coi_rules if name == "coi" else _PASS_RULES[name]
    rules(compiled, canon, keep)
    optimized = _reference_materialize(
        compiled, canon, keep, prune=(name == "coi")
    ).compile()
    names = compiled.net_names
    provenance: dict[int, tuple] = {}
    for s in range(compiled.num_slots):
        kind, payload = canon[s]
        if kind == "const":
            provenance[s] = ("const", payload)
            continue
        new = optimized.slot_of.get(names[payload])
        provenance[s] = ("slot", new) if new is not None else ("dropped",)
    return OptimizedCircuit(
        source=compiled,
        compiled=optimized,
        provenance=provenance,
        level=name,
        passes=(name,),
        stats={name: compiled.num_gates - optimized.num_gates},
    )


def _reference_optimize(compiled, level=None) -> OptimizedCircuit:
    resolved = resolve_opt(level)
    provenance = {s: ("slot", s) for s in range(compiled.num_slots)}
    if resolved == "off" or compiled.num_gates == 0:
        return OptimizedCircuit(compiled, compiled, provenance, resolved, (), {})
    current = compiled
    applied: list[str] = []
    stats: dict[str, int] = {}
    for _ in range(_MAX_ROUNDS):
        before = current
        for name in _PIPELINES[resolved]:
            step = _reference_pass(current, name)
            provenance = {
                slot: step.provenance[val[1]] if val[0] == "slot" else val
                for slot, val in provenance.items()
            }
            applied.append(name)
            stats[name] = stats.get(name, 0) + step.stats[name]
            current = step.compiled
        if current == before:
            break
    return OptimizedCircuit(
        compiled, current, provenance, resolved, tuple(applied), stats
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _gate_rows(compiled) -> list[tuple]:
    return [(g.output, g.gtype, g.inputs) for g in compiled.gates]


def _assert_same(result: OptimizedCircuit, reference: OptimizedCircuit):
    got, want = result.compiled, reference.compiled
    assert got.content_hash() == want.content_hash()
    assert _gate_rows(got) == _gate_rows(want)
    assert got.net_names == want.net_names
    assert got.slot_of == want.slot_of
    assert got.output_slots == want.output_slots
    assert got.gate_types == want.gate_types
    assert got.gate_fanin_slots == want.gate_fanin_slots
    assert (got.name, got.inputs, got.outputs) == (
        want.name, want.inputs, want.outputs
    )
    assert result.provenance == reference.provenance
    assert list(result.provenance) == list(reference.provenance)
    assert result.passes == reference.passes
    assert result.stats == reference.stats
    assert result.level == reference.level


def _assert_synthesize_same(netlist: Netlist, monkeypatch) -> None:
    pin = {net: bool(i % 2) for i, net in enumerate(netlist.inputs[:2])}
    for pins in ({}, pin):
        got = synthesize(netlist, pin=pins).netlist
        with monkeypatch.context() as patch:
            patch.setattr(
                synth_optimize, "optimize_compiled", _reference_optimize
            )
            want = synthesize(netlist, pin=pins).netlist
        assert got == want
        assert list(got.gates.items()) == list(want.gates.items())


def _assert_pipeline_parity(compiled, levels=("light", "full")) -> None:
    for level in levels:
        _assert_same(
            optimize_compiled(compiled, level),
            _reference_optimize(compiled, level),
        )


# ----------------------------------------------------------------------
# Registered circuits, plain and locked
# ----------------------------------------------------------------------

_SCHEMES = {
    "plain": None,
    "sarlock": dict(key_size=4, seed=1),
    "xor": dict(key_size=6, seed=1),
    "antisat": dict(key_size=4, seed=1),
    "lut": dict(spec="tiny", seed=1),
}


@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
@pytest.mark.parametrize("circuit", circuit_names())
def test_registered_circuits_match_reference(circuit, scheme):
    netlist = resolve_circuit(circuit, scale=0.12)
    params = _SCHEMES[scheme]
    if params is not None:
        netlist = lock_circuit(scheme, netlist, **params).netlist
    _assert_pipeline_parity(netlist.compile())


@pytest.mark.parametrize("circuit", ["real_c432", "c880", "c1908"])
def test_synthesize_matches_reference(circuit, monkeypatch):
    locked = lock_circuit("sarlock", resolve_circuit(circuit, 0.12), key_size=4)
    _assert_synthesize_same(locked.netlist, monkeypatch)


# ----------------------------------------------------------------------
# Random netlists
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    gates=st.integers(1, 60),
    inputs=st.integers(1, 7),
    outputs=st.integers(1, 5),
    allow_const=st.booleans(),
)
def test_random_netlists_match_reference(
    seed, gates, inputs, outputs, allow_const
):
    compiled = random_netlist(
        inputs, gates, seed=seed, num_outputs=outputs,
        allow_const=allow_const,
    ).compile()
    _assert_pipeline_parity(compiled)
    for name in PASS_NAMES:
        _assert_same(run_pass(compiled, name), _reference_pass(compiled, name))


# ----------------------------------------------------------------------
# Interface corner cases
# ----------------------------------------------------------------------


def _corner_netlist() -> Netlist:
    """Constant POs, a PI PO, a duplicate PO and two POs on one net."""
    netlist = Netlist("corners")
    a, b, c = netlist.add_inputs(["a", "b", "c"])
    netlist.add_gate("zero", GateType.CONST0, [])
    netlist.add_gate("one", GateType.NOT, ["zero"])
    netlist.add_gate("folded", GateType.AND, [a, "zero"])
    netlist.add_gate("ab", GateType.AND, [a, b])
    netlist.add_gate("ba", GateType.AND, [b, a])
    netlist.add_gate("alias1", GateType.BUF, ["ab"])
    netlist.add_gate("alias2", GateType.BUF, ["ba"])
    netlist.add_gate("cc", GateType.XOR, [c, c])
    netlist.set_outputs(
        ["one", "folded", a, "alias1", "alias2", "alias1", "cc", c, "ab"]
    )
    return netlist


def test_interface_corners_match_reference(monkeypatch):
    netlist = _corner_netlist()
    _assert_pipeline_parity(netlist.compile())
    _assert_synthesize_same(netlist, monkeypatch)
    for name in PASS_NAMES:
        compiled = netlist.compile()
        _assert_same(run_pass(compiled, name), _reference_pass(compiled, name))


def test_mux_keeps_a_constant_fanin():
    """``MUX(s, 0, d)`` survives the sweep reading an ``_opt_const0`` net."""
    netlist = Netlist("mux0")
    s, d = netlist.add_inputs(["s", "d"])
    netlist.add_gate("zero", GateType.CONST0, [])
    netlist.add_gate("m", GateType.MUX, [s, "zero", d])
    netlist.add_gate("po", GateType.XOR, ["m", s])
    netlist.set_outputs(["po"])
    compiled = netlist.compile()
    result = optimize_compiled(compiled, "full")
    assert "_opt_const0" in result.compiled.net_names
    _assert_pipeline_parity(compiled)
    _assert_same(run_pass(compiled, "sweep"), _reference_pass(compiled, "sweep"))


def test_existing_opt_const_name_is_suffixed():
    """A net already named ``_opt_const0`` pushes the new one to a suffix."""
    netlist = Netlist("clash")
    s, d = netlist.add_inputs(["s", "d"])
    netlist.add_gate("zero", GateType.CONST0, [])
    netlist.add_gate("_opt_const0", GateType.OR, [s, d])
    netlist.add_gate("m", GateType.MUX, ["_opt_const0", "zero", d])
    netlist.add_gate("dead", GateType.NOT, ["zero"])
    netlist.set_outputs(["m", "_opt_const0"])
    compiled = netlist.compile()
    result = optimize_compiled(compiled, "full")
    assert "_opt_const0_" in result.compiled.net_names
    _assert_pipeline_parity(compiled)
    for name in PASS_NAMES:
        _assert_same(run_pass(compiled, name), _reference_pass(compiled, name))


def test_gate_free_circuit():
    netlist = Netlist("wires")
    netlist.add_inputs(["a", "b"])
    netlist.set_outputs(["b", "a", "b"])
    compiled = netlist.compile()
    _assert_pipeline_parity(compiled)
    assert optimize_compiled(compiled, "full").compiled is compiled


# ----------------------------------------------------------------------
# Nothing to do builds nothing
# ----------------------------------------------------------------------


def test_unchanged_circuit_is_returned_itself():
    """No pass changes real_c432, so the result is the source circuit."""
    compiled = resolve_circuit("real_c432").compile()
    result = optimize_compiled(compiled, "full")
    assert result.compiled is compiled
    assert result.passes == ("sweep", "chains", "strash", "coi")
    assert result.stats == {"sweep": 0, "chains": 0, "strash": 0, "coi": 0}
    _assert_same(result, _reference_optimize(compiled, "full"))
    for name in PASS_NAMES:
        assert run_pass(compiled, name).compiled is compiled


def test_reoptimizing_matches_reference():
    """An optimized circuit can still shuffle its output drivers."""
    compiled = random_netlist(6, 50, seed=4, allow_const=True).compile()
    once = optimize_compiled(compiled, "full").compiled
    assert once is not compiled
    again = optimize_compiled(once, "full")
    assert again.compiled == once
    _assert_same(again, _reference_optimize(once, "full"))
