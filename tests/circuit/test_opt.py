"""Optimization-pass tests: parity, provenance, idempotence, caching.

The opt contract: optimization never changes a result, only circuit
size.  Every pass and the full pipeline are property-tested bit-for-bit
against the unoptimized compiled circuit on random netlists (n-ary
gates, MUX and CONST included) and on locked circuits (XOR locks and
SARLock comparators — the shapes the miter actually sees).  Provenance
is checked as a claim about values: every ``("slot", new)`` image
carries the original slot's word and every ``("const", b)`` image names
a slot the original circuit held constant.
"""

import pytest
from hypothesis import given, strategies as st

from repro.attacks.sat_attack import build_miter_encoding
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.opt import (
    OPT_LEVEL,
    PASS_NAMES,
    optimize_compiled,
    resolve_opt,
    run_pass,
)
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import random_patterns
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.oracle.oracle import Oracle

#: The pipeline, then each pass on its own: what the parity and
#: provenance properties run over.
STEPS = ("pipeline",) + PASS_NAMES


def _apply(compiled, step: str):
    if step == "pipeline":
        return optimize_compiled(compiled)
    return run_pass(compiled, step)


def _words_for(compiled, width: int, seed: int) -> tuple[list[int], int]:
    mask = (1 << width) - 1
    words = [
        w & mask
        for w in random_patterns(len(compiled.inputs), width, seed)
    ]
    return words, mask


def _output_words(compiled, words, mask) -> list[int]:
    values = compiled.eval_words(list(words), mask)
    return [values[s] for s in compiled.output_slots]


def _assert_parity(original, optimized, width: int = 128, seed: int = 0):
    """Interface identity + bit-for-bit output parity on random words."""
    assert optimized.inputs == original.inputs
    assert optimized.outputs == original.outputs
    words, mask = _words_for(original, width, seed)
    assert _output_words(optimized, words, mask) == _output_words(
        original, words, mask
    )


def _redundant_netlist() -> Netlist:
    """Hand-built circuit with one target for every pass.

    ``sweep_me`` folds under constant propagation, the BUF/NOT chains
    collapse under ``chains``, ``and2`` is a commuted duplicate of
    ``and1`` for ``strash``, and ``dangle`` feeds no primary output so
    ``coi`` drops it.  After the full pipeline ``out2`` (XOR of the
    merged duplicates) becomes the constant 0.
    """
    netlist = Netlist("redundant")
    a, b, c = netlist.add_inputs(["a", "b", "c"])
    netlist.add_gate("one", GateType.CONST1, [])
    netlist.add_gate("sweep_me", GateType.AND, [a, "one"])
    netlist.add_gate("buf1", GateType.BUF, ["sweep_me"])
    netlist.add_gate("buf2", GateType.BUF, ["buf1"])
    netlist.add_gate("inv1", GateType.NOT, [b])
    netlist.add_gate("inv2", GateType.NOT, ["inv1"])
    netlist.add_gate("and1", GateType.AND, [a, b])
    netlist.add_gate("and2", GateType.AND, [b, a])
    netlist.add_gate("dangle", GateType.XOR, [c, "and1"])
    netlist.add_gate("out1", GateType.OR, ["buf2", "inv2"])
    netlist.add_gate("out2", GateType.XOR, ["and1", "and2"])
    netlist.set_outputs(["out1", "out2"])
    netlist.validate()
    return netlist


class TestPassParity:
    @given(
        seed=st.integers(0, 10_000),
        name=st.sampled_from(PASS_NAMES),
        allow_const=st.booleans(),
    )
    def test_single_pass_preserves_outputs(self, seed, name, allow_const):
        compiled = random_netlist(
            6, 40, seed=seed, allow_const=allow_const
        ).compile()
        result = run_pass(compiled, name)
        assert result.passes == (name,)
        assert result.gates_removed >= 0
        _assert_parity(compiled, result.compiled, seed=seed)

    @given(seed=st.integers(0, 10_000), allow_const=st.booleans())
    def test_pipeline_preserves_outputs(self, seed, allow_const):
        compiled = random_netlist(
            6, 40, seed=seed, allow_const=allow_const
        ).compile()
        result = optimize_compiled(compiled)
        assert result.passes[:4] == PASS_NAMES
        _assert_parity(compiled, result.compiled, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_pipeline_preserves_truth_table(self, seed):
        """Exhaustive parity: every input pattern, not a sample."""
        compiled = random_netlist(6, 45, seed=seed, allow_const=True).compile()
        optimized = optimize_compiled(compiled).compiled
        assert (
            optimized.truth_table_words() == compiled.truth_table_words()
        )

    @pytest.mark.parametrize("scheme", ["xor", "sarlock"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_locked_circuit_parity(self, scheme, seed):
        """The shapes the miter sees: key inputs are ordinary inputs."""
        carrier = random_netlist(6, 40, seed=seed)
        if scheme == "xor":
            locked = xor_lock(carrier, key_size=4, seed=seed)
        else:
            locked = sarlock_lock(carrier, key_size=4, seed=seed)
        compiled = locked.netlist.compile()
        for step in STEPS:
            result = _apply(compiled, step)
            _assert_parity(compiled, result.compiled, width=256, seed=seed)


class TestIdempotence:
    @given(seed=st.integers(0, 10_000))
    def test_second_run_is_identity(self, seed):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        once = optimize_compiled(compiled)
        twice = optimize_compiled(once.compiled)
        assert twice.compiled == once.compiled  # structural equality
        assert twice.gates_removed == 0

    def test_fixpoint_on_redundant_circuit(self):
        compiled = _redundant_netlist().compile()
        once = optimize_compiled(compiled)
        assert once.gates_removed > 0
        again = optimize_compiled(once.compiled)
        assert again.compiled == once.compiled


class TestProvenance:
    @given(seed=st.integers(0, 10_000), step=st.sampled_from(STEPS))
    def test_images_carry_original_values(self, seed, step):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        result = _apply(compiled, step)
        assert set(result.provenance) == set(range(compiled.num_slots))
        words, mask = _words_for(compiled, 96, seed)
        original = compiled.eval_words(list(words), mask)
        optimized = result.compiled.eval_words(list(words), mask)
        for slot in range(compiled.num_slots):
            image = result.slot_image(slot)
            if image[0] == "slot":
                assert optimized[image[1]] == original[slot]
            elif image[0] == "const":
                assert original[slot] == (mask if image[1] else 0)
            else:
                assert image == ("dropped",)

    @given(seed=st.integers(0, 5_000), step=st.sampled_from(STEPS))
    def test_outputs_never_dropped(self, seed, step):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        result = _apply(compiled, step)
        for slot in compiled.output_slots:
            assert result.slot_image(slot)[0] in ("slot", "const")

    def test_folded_output_reports_const(self):
        compiled = _redundant_netlist().compile()
        result = optimize_compiled(compiled)
        assert result.slot_image(compiled.slot_of["out2"]) == ("const", 0)


class TestPassTargets:
    """Each pass removes the redundancy it was built for."""

    def test_sweep_folds_constant_fanin(self):
        compiled = _redundant_netlist().compile()
        result = run_pass(compiled, "sweep")
        assert result.stats["sweep"] >= 1
        assert result.slot_image(compiled.slot_of["sweep_me"]) == (
            "slot",
            compiled.slot_of["a"],
        )

    def test_chains_collapse_buf_and_not_pairs(self):
        compiled = _redundant_netlist().compile()
        result = run_pass(compiled, "chains")
        assert result.stats["chains"] >= 3  # buf1, buf2, inv2

    def test_strash_merges_commuted_duplicates(self):
        compiled = _redundant_netlist().compile()
        result = run_pass(compiled, "strash")
        assert result.stats["strash"] >= 1
        image1 = result.slot_image(compiled.slot_of["and1"])
        image2 = result.slot_image(compiled.slot_of["and2"])
        assert image1 == image2

    def test_strash_keeps_mux_fanin_order(self):
        """MUX fanins are ordered (sel, d1, d0): no commutative merge."""
        netlist = Netlist("mux_pair")
        netlist.add_inputs(["s", "a", "b"])
        netlist.add_gate("x", GateType.MUX, ["s", "a", "b"])
        netlist.add_gate("y", GateType.MUX, ["s", "b", "a"])
        netlist.set_outputs(["x", "y"])
        result = optimize_compiled(netlist.compile())
        assert result.stats["strash"] == 0
        assert result.compiled.num_gates == 2

    def test_coi_drops_dangling_cone(self):
        compiled = _redundant_netlist().compile()
        result = run_pass(compiled, "coi")
        assert result.slot_image(compiled.slot_of["dangle"]) == ("dropped",)

    def test_coi_keeps_unread_inputs(self):
        """Pruning never reshapes the port list, even for a dead input."""
        compiled = _redundant_netlist().compile()  # "c" only feeds dangle
        result = optimize_compiled(compiled)
        assert result.compiled.inputs == ("a", "b", "c")
        assert result.compiled.outputs == compiled.outputs

    def test_full_pipeline_compounds(self):
        compiled = _redundant_netlist().compile()
        result = optimize_compiled(compiled)
        # out1 == OR(a, b); out2 == const 0 — nearly everything folds.
        assert result.compiled.num_gates <= 3
        assert result.gates_before == compiled.num_gates


class TestOffIdentity:
    """The unoptimized reference every "off" comparison runs under: the
    suite's ``unoptimized`` fixture returns each circuit as it is."""

    def test_off_is_the_same_object(self, unoptimized):
        compiled = random_netlist(5, 25, seed=3).compile()
        with unoptimized():
            result = compiled.optimized()
        assert result.compiled is compiled
        assert result.passes == ()
        assert all(
            result.slot_image(s) == ("slot", s)
            for s in range(compiled.num_slots)
        )

    def test_compiled_optimized_off(self, unoptimized):
        """Every consumer sees the circuit the optimizer would shrink."""
        carrier = random_netlist(6, 40, seed=3)
        locked = sarlock_lock(carrier, key_size=4, seed=3)
        gates = locked.netlist.compile().num_gates
        with unoptimized():
            enc = build_miter_encoding(locked)
            oracle = Oracle(carrier)
        assert enc.compiled is locked.netlist.compile()
        assert enc.encode_stats()["gates_after"] == gates
        assert oracle._compiled is carrier.compile()
        assert build_miter_encoding(locked).gates_after < gates


class TestLever:
    """What is left of the retired ``opt`` lever: one fixed level."""

    def test_resolve_opt_is_the_one_level(self):
        assert OPT_LEVEL == "full"
        for asked in (None, "off", "light", "full", "auto"):
            assert resolve_opt(asked) == OPT_LEVEL

    def test_unknown_pass_rejected(self):
        compiled = random_netlist(4, 10, seed=1).compile()
        with pytest.raises(ValueError, match="unknown pass"):
            run_pass(compiled, "retime")


class TestCaching:
    def test_one_result_per_level(self):
        compiled = random_netlist(6, 40, seed=9).compile()
        result = compiled.optimized()
        assert compiled.optimized() is result
        assert result.compiled == optimize_compiled(compiled).compiled

    def test_tainted_slots_cached_per_seed_set(self):
        compiled = random_netlist(6, 40, seed=11).compile()
        seeds = [compiled.slot_of[compiled.inputs[0]]]
        first = compiled.tainted_slots(seeds)
        # A fresh list comes back each call: mutation cannot poison the
        # cache, and unordered/duplicated seed sets share one entry.
        second = compiled.tainted_slots(seeds)
        assert second == first
        assert second is not first
        second[0] = not second[0]
        assert compiled.tainted_slots(seeds) == first
        shuffled = compiled.tainted_slots(list(reversed(seeds * 2)))
        assert shuffled == first
        assert len(compiled._tainted_cache) == 1
