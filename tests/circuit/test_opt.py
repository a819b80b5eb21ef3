"""Optimization-pass tests: parity, provenance, idempotence, lever.

The opt contract mirrors the lane contract: optimization never changes
a result, only circuit size.  Every pass and the full pipeline are
property-tested bit-for-bit against the unoptimized compiled circuit
on random netlists (n-ary gates, MUX and CONST included) and on locked
circuits (XOR locks and SARLock comparators — the shapes the miter
actually sees), across the python big-int path and, when installed,
the numpy lane backend.  Provenance is checked as a claim about
values: every ``("slot", new)`` image carries the original slot's word
and every ``("const", b)`` image names a slot the original circuit
held constant.
"""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.gates import GateType
from repro.circuit.lanes import numpy_available
from repro.circuit.netlist import Netlist
from repro.circuit.opt import (
    OPT_LEVELS,
    PASS_NAMES,
    optimize_compiled,
    resolve_opt,
    run_pass,
)
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import random_patterns
from repro.levers import OPT
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy lane backend not installed"
)


@pytest.fixture(autouse=True)
def _clean_lever(monkeypatch):
    """Each test sees the stock lever: no REPRO_OPT."""
    monkeypatch.delenv("REPRO_OPT", raising=False)


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

    @given(
        seed=st.integers(0, 10_000),
        level=st.sampled_from(("light", "full")),
        allow_const=st.booleans(),
    )
    def test_pipeline_preserves_outputs(self, seed, level, allow_const):
        compiled = random_netlist(
            6, 40, seed=seed, allow_const=allow_const
        ).compile()
        result = optimize_compiled(compiled, level)
        assert result.level == level
        _assert_parity(compiled, result.compiled, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_pipeline_preserves_truth_table(self, seed):
        """Exhaustive parity: every input pattern, not a sample."""
        compiled = random_netlist(6, 45, seed=seed, allow_const=True).compile()
        optimized = optimize_compiled(compiled, "full").compiled
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
        for level in ("light", "full"):
            result = optimize_compiled(compiled, level)
            _assert_parity(compiled, result.compiled, width=256, seed=seed)

    @needs_numpy
    @given(seed=st.integers(0, 5_000))
    def test_numpy_lane_parity_on_optimized(self, seed):
        """Optimized circuits evaluate identically on both lane backends."""
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        optimized = optimize_compiled(compiled, "full").compiled
        words, mask = _words_for(optimized, 128, seed)
        python = optimized.eval_words(list(words), mask)
        assert optimized.lane_program().eval_words(words, mask) == python


class TestIdempotence:
    @given(seed=st.integers(0, 10_000), level=st.sampled_from(("light", "full")))
    def test_second_run_is_identity(self, seed, level):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        once = optimize_compiled(compiled, level)
        twice = optimize_compiled(once.compiled, level)
        assert twice.compiled == once.compiled  # structural equality
        assert twice.gates_removed == 0

    def test_fixpoint_on_redundant_circuit(self):
        compiled = _redundant_netlist().compile()
        once = optimize_compiled(compiled, "full")
        assert once.gates_removed > 0
        again = optimize_compiled(once.compiled, "full")
        assert again.compiled == once.compiled


class TestProvenance:
    @given(seed=st.integers(0, 10_000), level=st.sampled_from(("light", "full")))
    def test_images_carry_original_values(self, seed, level):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        result = optimize_compiled(compiled, level)
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

    @given(seed=st.integers(0, 5_000))
    def test_outputs_never_dropped(self, seed):
        compiled = random_netlist(6, 40, seed=seed, allow_const=True).compile()
        result = optimize_compiled(compiled, "full")
        for slot in compiled.output_slots:
            assert result.slot_image(slot)[0] in ("slot", "const")

    def test_folded_output_reports_const(self):
        compiled = _redundant_netlist().compile()
        result = optimize_compiled(compiled, "full")
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
        result = optimize_compiled(netlist.compile(), "full")
        assert result.stats["strash"] == 0
        assert result.compiled.num_gates == 2

    def test_coi_drops_dangling_cone(self):
        compiled = _redundant_netlist().compile()
        result = run_pass(compiled, "coi")
        assert result.slot_image(compiled.slot_of["dangle"]) == ("dropped",)

    def test_coi_keeps_unread_inputs(self):
        """Pruning never reshapes the port list, even for a dead input."""
        compiled = _redundant_netlist().compile()  # "c" only feeds dangle
        result = optimize_compiled(compiled, "full")
        assert result.compiled.inputs == ("a", "b", "c")
        assert result.compiled.outputs == compiled.outputs

    def test_full_pipeline_compounds(self):
        compiled = _redundant_netlist().compile()
        result = optimize_compiled(compiled, "full")
        # out1 == OR(a, b); out2 == const 0 — nearly everything folds.
        assert result.compiled.num_gates <= 3
        assert result.gates_before == compiled.num_gates


class TestOffIdentity:
    def test_off_is_the_same_object(self):
        compiled = random_netlist(5, 25, seed=3).compile()
        result = optimize_compiled(compiled, "off")
        assert result.compiled is compiled
        assert result.passes == ()
        assert all(
            result.slot_image(s) == ("slot", s)
            for s in range(compiled.num_slots)
        )

    def test_compiled_optimized_off(self):
        compiled = random_netlist(5, 25, seed=4).compile()
        assert compiled.optimized("off").compiled is compiled


class TestLever:
    def test_default_is_auto(self):
        assert OPT.current() == "auto"
        assert resolve_opt(None) == "full"
        assert resolve_opt("auto") == "full"

    def test_levels_roster(self):
        assert OPT_LEVELS == ("off", "light", "full")
        for level in OPT_LEVELS:
            assert resolve_opt(level) == level

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "light")
        assert OPT.current() == "light"
        assert resolve_opt(None) == "light"

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="unknown opt level"):
            resolve_opt("aggressive")

    def test_unknown_pass_rejected(self):
        compiled = random_netlist(4, 10, seed=1).compile()
        with pytest.raises(ValueError, match="unknown pass"):
            run_pass(compiled, "retime")


class TestCaching:
    def test_one_result_per_level(self):
        compiled = random_netlist(6, 40, seed=9).compile()
        assert compiled.optimized("full") is compiled.optimized("full")
        assert compiled.optimized("light") is not compiled.optimized("full")
        # "auto" and the process default resolve into the same cache slot.
        assert compiled.optimized("auto") is compiled.optimized("full")
        assert compiled.optimized(None) is compiled.optimized("full")

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
