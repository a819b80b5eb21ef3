"""Functional correctness of the benchmark generators."""

import pytest
from hypothesis import given, strategies as st

from repro.bench_circuits.generators import (
    array_multiplier,
    expand_xor_to_nand,
    hamming_sec_corrector,
    priority_controller,
    ripple_carry_adder,
    simple_alu,
)
from repro.bench_circuits.blocks import BlockBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.simulator import evaluate, truth_table


def _word(prefix: str, value: int, width: int) -> dict[str, int]:
    return {f"{prefix}{i}": (value >> i) & 1 for i in range(width)}


def _read_word(outs: dict[str, int], prefix: str, width: int) -> int:
    return sum(outs[f"{prefix}{i}"] << i for i in range(width))


class TestAdder:
    @given(a=st.integers(0, 255), b=st.integers(0, 255), cin=st.integers(0, 1))
    def test_addition(self, a, b, cin):
        n = ripple_carry_adder(8)
        outs = evaluate(n, {**_word("a", a, 8), **_word("b", b, 8), "cin": cin})
        got = _read_word(outs, "sum", 8) + (outs["cout"] << 8)
        assert got == a + b + cin

    def test_width_one(self):
        n = ripple_carry_adder(1)
        outs = evaluate(n, {"a0": 1, "b0": 1, "cin": 1})
        assert outs["sum0"] == 1 and outs["cout"] == 1


class TestMultiplier:
    @given(a=st.integers(0, 31), b=st.integers(0, 31))
    def test_multiplication_5x5(self, a, b):
        n = array_multiplier(5)
        outs = evaluate(n, {**_word("a", a, 5), **_word("b", b, 5)})
        assert _read_word(outs, "p", 10) == a * b

    def test_interface_is_c6288_shaped(self):
        n = array_multiplier(16)
        assert len(n.inputs) == 32
        assert len(n.outputs) == 32


def _comparator(width: int) -> Netlist:
    """A magnitude comparator (eq/lt/gt) from the blocks the c7552
    stand-in builds its comparator with."""
    netlist = Netlist(f"cmp{width}")
    a = netlist.add_inputs([f"a{i}" for i in range(width)])
    b = netlist.add_inputs([f"b{i}" for i in range(width)])
    bb = BlockBuilder(netlist, "cmp")
    eq = bb.equality(a, b)
    lt = bb.less_than(a, b)
    netlist.add_gate("eq", GateType.BUF, [eq])
    netlist.add_gate("lt", GateType.BUF, [lt])
    netlist.add_gate("gt", GateType.NOR, [eq, lt])
    netlist.set_outputs(["eq", "lt", "gt"])
    netlist.validate()
    return netlist


class TestComparator:
    @given(a=st.integers(0, 63), b=st.integers(0, 63))
    def test_magnitude(self, a, b):
        n = _comparator(6)
        outs = evaluate(n, {**_word("a", a, 6), **_word("b", b, 6)})
        assert outs["eq"] == int(a == b)
        assert outs["lt"] == int(a < b)
        assert outs["gt"] == int(a > b)


class TestAlu:
    OPS = {
        0: lambda a, b, c, w: (a + b + c) & ((1 << w) - 1),
        2: lambda a, b, c, w: a & b,
        3: lambda a, b, c, w: a | b,
        4: lambda a, b, c, w: a ^ b,
        5: lambda a, b, c, w: ~a & ((1 << w) - 1),
        6: lambda a, b, c, w: ((a << 1) | c) & ((1 << w) - 1),
        7: lambda a, b, c, w: b,
    }

    @given(
        a=st.integers(0, 15),
        b=st.integers(0, 15),
        cin=st.integers(0, 1),
        op=st.sampled_from([0, 2, 3, 4, 5, 6, 7]),
    )
    def test_operations(self, a, b, cin, op):
        w = 4
        n = simple_alu(w)
        bits = {
            **_word("a", a, w),
            **_word("b", b, w),
            **_word("op", op, 3),
            "cin": cin,
        }
        outs = evaluate(n, bits)
        assert _read_word(outs, "f", w) == self.OPS[op](a, b, cin, w)

    @given(a=st.integers(0, 15), b=st.integers(0, 15), cin=st.integers(0, 1))
    def test_subtract_with_borrow(self, a, b, cin):
        w = 4
        n = simple_alu(w)
        bits = {
            **_word("a", a, w),
            **_word("b", b, w),
            **_word("op", 1, 3),
            "cin": cin,
        }
        outs = evaluate(n, bits)
        expected = (a + ((~b) & 15) + cin) & 15
        assert _read_word(outs, "f", w) == expected

    def test_flags(self):
        w = 4
        n = simple_alu(w)
        bits = {
            **_word("a", 0, w),
            **_word("b", 0, w),
            **_word("op", 2, 3),
            "cin": 0,
        }
        outs = evaluate(n, bits)
        assert outs["zero"] == 1
        assert outs["parity"] == 0

    def test_extra_controls_mask_result(self):
        n = simple_alu(3, extra_controls=1)
        bits = {
            **_word("a", 7, 3),
            **_word("b", 7, 3),
            **_word("op", 3, 3),
            "cin": 0,
            "en0": 0,
        }
        outs = evaluate(n, bits)
        assert _read_word(outs, "f", 3) == 0

    def test_select_bits_floor(self):
        with pytest.raises(ValueError):
            simple_alu(4, select_bits=2)


class TestHammingSec:
    @given(data=st.integers(0, 255))
    def test_clean_word_with_matching_checks_decodes(self, data):
        """If received checks equal recomputed checks, syndrome is zero
        and the data word passes through unmodified."""
        width = 8
        n = hamming_sec_corrector(width)
        check_bits = len([i for i in n.inputs if i.startswith("c")])
        # Compute matching check bits: parity over data taps.
        checks = 0
        for j in range(check_bits):
            taps = [i for i in range(width) if ((i + 1) >> j) & 1] or [0]
            parity = 0
            for t in taps:
                parity ^= (data >> t) & 1
            checks |= parity << j
        bits = {**_word("d", data, width), **_word("c", checks, check_bits)}
        outs = evaluate(n, bits)
        assert _read_word(outs, "q", width) == data

    def test_nand_style_is_equivalent(self):
        a = hamming_sec_corrector(6)
        b = hamming_sec_corrector(6, nand_style=True)
        from repro.circuit.equivalence import check_equivalence

        assert check_equivalence(a, b).equivalent

    def test_nand_style_has_no_xor(self):
        n = hamming_sec_corrector(6, nand_style=True)
        kinds = {g.gtype for g in n.gates.values()}
        assert GateType.XOR not in kinds
        assert GateType.XNOR not in kinds


class TestPriorityController:
    def test_lowest_active_channel_wins(self):
        n = priority_controller(3, 2)
        bits = {}
        # channel 0 idle, channels 1,2 active and enabled
        for c in range(3):
            for i in range(2):
                bits[f"r{c}_{i}"] = 1 if c > 0 else 0
                bits[f"e{c}_{i}"] = 1
        outs = evaluate(n, bits)
        assert outs["g0"] == 0
        assert outs["g1"] == 1
        assert outs["g2"] == 0
        assert outs["any"] == 1

    def test_masked_requests_ignored(self):
        n = priority_controller(2, 2)
        bits = {f"r{c}_{i}": 1 for c in range(2) for i in range(2)}
        bits.update({f"e{c}_{i}": 0 for c in range(2) for i in range(2)})
        outs = evaluate(n, bits)
        assert outs["any"] == 0


class TestXorExpansion:
    @given(seed=st.integers(0, 2000))
    def test_equivalence(self, seed):
        from repro.circuit.random_circuits import random_netlist

        n = random_netlist(5, 20, seed=seed)
        expanded = expand_xor_to_nand(n)
        expanded.validate()
        tt_a, tt_b = truth_table(n), truth_table(expanded)
        assert all(tt_a[o] == tt_b[o] for o in n.outputs)
