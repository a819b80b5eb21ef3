"""Compiled circuit IR tests.

Seeded property tests assert compiled-vs-legacy parity on random
circuits covering every gate family the generator emits (n-ary
AND/OR/XOR trees, MUX, BUF/NOT chains, CONST gates), plus the compile
cache's invalidation rules and the content-hash identity used for
result-cache keys.
"""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.circuit.compiled import CompiledCircuit, CompileError
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import (
    evaluate,
    random_patterns,
    simulate,
    simulate_reference,
    truth_table,
)


def _nary_mux_netlist() -> Netlist:
    """Hand-built circuit hitting every opcode the compiler lowers to."""
    netlist = Netlist("kernels")
    a, b, c, d, e = netlist.add_inputs(list("abcde"))
    netlist.add_gate("n1", GateType.NAND, [a, b, c, d, e])
    netlist.add_gate("n2", GateType.XNOR, [a, b, c, d, e])
    netlist.add_gate("n3", GateType.NOR, [c, d, e])
    netlist.add_gate("n4", GateType.MUX, [a, "n1", "n2"])
    netlist.add_gate("n5", GateType.CONST1, [])
    netlist.add_gate("n6", GateType.BUF, ["n4"])
    netlist.add_gate("n7", GateType.XOR, ["n6", "n5", "n3"])
    netlist.add_gate("n8", GateType.NOT, ["n7"])
    netlist.set_outputs(["n8", "n4", "n3"])
    netlist.validate()
    return netlist


class TestParity:
    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from([1, 7, 64]),
        allow_const=st.booleans(),
    )
    def test_simulate_matches_reference(self, seed, width, allow_const):
        netlist = random_netlist(6, 40, seed=seed, allow_const=allow_const)
        stimuli = dict(
            zip(netlist.inputs, random_patterns(len(netlist.inputs), width, seed))
        )
        assert simulate(netlist, stimuli, width) == simulate_reference(
            netlist, stimuli, width
        )

    @given(seed=st.integers(0, 10_000), allow_const=st.booleans())
    def test_truth_table_matches_reference(self, seed, allow_const):
        netlist = random_netlist(5, 30, seed=seed, allow_const=allow_const)
        reference = simulate_reference(
            netlist,
            dict(
                zip(
                    netlist.inputs,
                    __import__(
                        "repro.circuit.compiled", fromlist=["exhaustive_words"]
                    ).exhaustive_words(len(netlist.inputs)),
                )
            ),
            width=1 << len(netlist.inputs),
        )
        tt = truth_table(netlist)
        assert tt == {net: reference[net] for net in netlist.outputs}

    @given(seed=st.integers(0, 10_000), pattern=st.integers(0, 63))
    def test_evaluate_matches_reference(self, seed, pattern):
        netlist = random_netlist(6, 35, seed=seed)
        bits = {
            net: (pattern >> j) & 1 for j, net in enumerate(netlist.inputs)
        }
        reference = simulate_reference(netlist, bits, width=1)
        assert evaluate(netlist, bits) == {
            net: reference[net] for net in netlist.outputs
        }

    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from([1, 63, 64, 65, 129, 700]),
        allow_const=st.booleans(),
    )
    def test_eval_words_matches_reference(self, seed, width, allow_const):
        """eval_words == simulate_reference on every slot, at widths
        around the 64-bit word boundaries."""
        netlist = random_netlist(6, 40, seed=seed, allow_const=allow_const)
        compiled = netlist.compile()
        stimuli = dict(
            zip(
                netlist.inputs,
                random_patterns(len(netlist.inputs), width, seed),
            )
        )
        mask = (1 << width) - 1
        words = [stimuli[net] & mask for net in compiled.inputs]
        values = compiled.eval_words(words, mask)
        reference = simulate_reference(netlist, stimuli, width)
        for net, slot in compiled.slot_of.items():
            assert values[slot] == reference[net]

    def test_every_kernel_and_nary(self):
        netlist = _nary_mux_netlist()
        compiled = netlist.compile()
        width = 200
        mask = (1 << width) - 1
        words = random_patterns(len(netlist.inputs), width, seed=7)
        values = compiled.eval_words(words, mask)
        reference = simulate_reference(
            netlist, dict(zip(netlist.inputs, words)), width
        )
        for net, slot in compiled.slot_of.items():
            assert values[slot] == reference[net]

    def test_pinned_constant_inputs(self):
        """Constant words on inputs flow through like any stimulus."""
        n = Netlist("pinned")
        n.add_inputs(["a", "b", "sel"])
        n.add_gate("m", GateType.MUX, ["sel", "a", "b"])
        n.add_gate("inv", GateType.NOT, ["m"])
        n.add_gate("buf", GateType.BUF, ["inv"])
        n.set_outputs(["buf"])
        for stim in ({"a": 1, "b": 0, "sel": 0}, {"a": 1, "b": 0, "sel": 1}):
            assert simulate(n, stim) == simulate_reference(n, stim)

    def test_unary_and_nary_arities(self):
        """AND/XOR at arity 1 and > 2 lower to the right opcodes."""
        n = Netlist("arity")
        n.add_inputs(["a", "b", "c", "d"])
        n.add_gate("u", GateType.AND, ["a"])  # unary AND == BUF
        n.add_gate("v", GateType.NAND, ["b"])  # unary NAND == NOT
        n.add_gate("w", GateType.XOR, ["a", "b", "c", "d"])
        n.add_gate("x", GateType.NOR, ["u", "v", "w"])
        n.set_outputs(["u", "v", "w", "x"])
        for pattern in range(16):
            bits = {net: (pattern >> j) & 1 for j, net in enumerate(n.inputs)}
            assert simulate(n, bits) == simulate_reference(n, bits)


class TestEvaluatePattern:
    """evaluate_pattern agrees with the name-keyed single-pattern path."""

    @given(seed=st.integers(0, 5_000), pattern=st.integers(0, 63))
    def test_matches_eval_single(self, seed, pattern):
        netlist = random_netlist(6, 30, seed=seed, allow_const=True)
        compiled = netlist.compile()
        bits = [(pattern >> j) & 1 for j in range(6)]
        single = compiled.eval_single(bits)
        packed = compiled.evaluate_pattern(pattern)
        for k, net in enumerate(compiled.outputs):
            assert (packed >> k) & 1 == single[net]

    def test_repeated_calls_reuse_state(self):
        compiled = _nary_mux_netlist().compile()
        first = [compiled.evaluate_pattern(p) for p in range(32)]
        second = [compiled.evaluate_pattern(p) for p in range(32)]
        assert first == second


def test_shared_circuit_evaluates_correctly_across_threads():
    """Two threads evaluating one shared circuit get single-threaded answers.

    The carrier memos hand one ``CompiledCircuit`` to every job of a
    service, and the service runs jobs on threads.  A tiny switch
    interval makes the interpreter swap threads mid-sweep, so any
    evaluation storage kept on the instance would mix the two threads'
    values.
    """
    from repro.bench_circuits.corpus import load_corpus

    compiled = load_corpus("real_c432").compile()
    width = compiled.num_inputs
    patterns = [(p * 0x9E3779B97F4A7C15) % (1 << width) for p in range(600)]
    expected = [compiled.evaluate_pattern(p) for p in patterns]
    expected_batch = compiled.eval_batch(patterns[:64])
    barrier = threading.Barrier(2)
    results: dict[int, tuple] = {}

    def work(index: int) -> None:
        mine = patterns[index::2]
        barrier.wait()
        singles = [compiled.evaluate_pattern(p) for p in mine]
        outputs = [
            compiled.eval_outputs([(p >> j) & 1 for j in range(width)], 1)
            for p in mine
        ]
        batch = compiled.eval_batch(patterns[:64])
        results[index] = (singles, outputs, batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for index in (0, 1):
        singles, outputs, batch = results[index]
        assert singles == expected[index::2]
        packed = [
            sum(bit << k for k, bit in enumerate(words)) for words in outputs
        ]
        assert packed == expected[index::2]
        assert batch == expected_batch


class TestCompileSeam:
    def test_compile_is_cached(self, small_circuit):
        assert small_circuit.compile() is small_circuit.compile()

    def test_add_gate_invalidates(self, small_circuit):
        first = small_circuit.compile()
        small_circuit.add_gate("extra", GateType.NOT, [small_circuit.inputs[0]])
        second = small_circuit.compile()
        assert second is not first
        assert "extra" in second.slot_of

    def test_set_outputs_invalidates(self, small_circuit):
        first = small_circuit.compile()
        small_circuit.set_outputs(small_circuit.outputs[:1])
        assert small_circuit.compile() is not first

    def test_explicit_invalidate(self, small_circuit):
        first = small_circuit.compile()
        small_circuit.invalidate_compiled()
        assert small_circuit.compile() is not first

    def test_copy_does_not_share_cache(self, small_circuit):
        first = small_circuit.compile()
        dup = small_circuit.copy()
        assert dup.compile() is not first

    def test_topological_order_reuses_compiled_order(self, small_circuit):
        compiled = small_circuit.compile()
        order = small_circuit.topological_order()
        assert order == list(compiled.gates)

    def test_undriven_fanin_rejected(self):
        n = Netlist("broken")
        n.add_input("a")
        n.gates["g"] = __import__(
            "repro.circuit.netlist", fromlist=["Gate"]
        ).Gate("g", GateType.AND, ("a", "ghost"))
        n.set_outputs(["g"])
        with pytest.raises(CompileError):
            CompiledCircuit(n)

    def test_undriven_output_rejected(self):
        n = Netlist("broken")
        n.add_input("a")
        n.set_outputs(["missing"])
        with pytest.raises(CompileError):
            CompiledCircuit(n)


class TestSlots:
    def test_inputs_occupy_leading_slots(self, small_circuit):
        compiled = small_circuit.compile()
        for j, net in enumerate(compiled.inputs):
            assert compiled.slot_of[net] == j

    def test_fanins_precede_outputs(self, small_circuit):
        compiled = small_circuit.compile()
        for out, fanins in zip(
            compiled.gate_output_slots, compiled.gate_fanin_slots
        ):
            assert all(s < out for s in fanins)

    def test_eval_batch_matches_evaluate_pattern(self, small_circuit):
        compiled = small_circuit.compile()
        patterns = list(range(0, 1 << len(compiled.inputs), 3))
        assert compiled.eval_batch(patterns) == [
            compiled.evaluate_pattern(p) for p in patterns
        ]

    def test_eval_batch_empty(self, small_circuit):
        assert small_circuit.compile().eval_batch([]) == []

    def test_levels_and_fanouts_agree_with_dict_walk(self, small_circuit):
        compiled = small_circuit.compile()
        levels = dict(zip(compiled.net_names, compiled.levels()))
        walk = {net: 0 for net in small_circuit.inputs}
        for gate in small_circuit.topological_order():
            walk[gate.output] = 1 + max(
                (walk[src] for src in gate.inputs), default=0
            )
        assert levels == walk
        readers = compiled.fanout_slots()
        expected = small_circuit.fanouts()
        for net, slot in compiled.slot_of.items():
            assert sorted(compiled.net_names[s] for s in readers[slot]) == sorted(
                expected[net]
            )


class TestContentHash:
    def test_stable_and_equal_for_same_structure(self):
        a = random_netlist(5, 25, seed=9).compile()
        b = random_netlist(5, 25, seed=9).compile()
        assert a.content_hash() == b.content_hash()
        assert a == b
        assert hash(a) == hash(b)

    def test_differs_for_different_structure(self):
        a = random_netlist(5, 25, seed=9).compile()
        b = random_netlist(5, 25, seed=10).compile()
        assert a.content_hash() != b.content_hash()
        assert a != b

    def test_internal_names_do_not_matter(self):
        """Renaming internal nets preserves the interned structure."""
        n = random_netlist(4, 20, seed=3)
        renamed = n.renamed("zz_", keep_inputs=n.inputs)
        # Restore the original interface names on the outputs.
        from repro.circuit.netlist import Gate

        for orig, pref in zip(n.outputs, renamed.outputs):
            renamed.gates[orig] = Gate(orig, GateType.BUF, (pref,))
        renamed.set_outputs(list(n.outputs))
        # Not identical structure (extra BUFs), but hashing is stable:
        assert renamed.compile().content_hash() == renamed.copy().compile().content_hash()
