"""`.bench` parser/writer tests."""

import pytest

from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.gates import GateType
from repro.circuit.netlist import NetlistError
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table


class TestParse:
    def test_simple(self):
        text = """
        # a comment
        INPUT(a)
        INPUT(b)
        OUTPUT(y)
        y = NAND(a, b)
        """
        n = parse_bench(text)
        assert n.inputs == ["a", "b"]
        assert n.outputs == ["y"]
        assert n.gates["y"].gtype is GateType.NAND

    def test_buff_alias(self):
        n = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
        assert n.gates["y"].gtype is GateType.BUF

    def test_inline_comment(self):
        n = parse_bench("INPUT(a)  # the input\nOUTPUT(a)\n")
        assert n.inputs == ["a"]

    def test_case_insensitive_decls(self):
        n = parse_bench("input(a)\noutput(y)\ny = not(a)\n")
        assert n.gates["y"].gtype is GateType.NOT

    def test_mux_extension(self):
        n = parse_bench(
            "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n"
        )
        assert n.gates["y"].gtype is GateType.MUX

    def test_const_extension(self):
        n = parse_bench("INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n")
        assert n.gates["k"].gtype is GateType.CONST1

    def test_dff_rejected(self):
        with pytest.raises(NetlistError, match="DFF"):
            parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")

    def test_unknown_gate_rejected(self):
        with pytest.raises(NetlistError, match="unknown gate"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(NetlistError, match="cannot parse"):
            parse_bench("INPUT(a)\nOUTPUT(a)\nwhat is this\n")

    def test_undriven_output_rejected(self):
        with pytest.raises(NetlistError):
            parse_bench("INPUT(a)\nOUTPUT(y)\n")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_function_preserved(self, seed):
        n = random_netlist(5, 25, seed=seed)
        back = parse_bench(format_bench(n), name=n.name)
        assert back.inputs == n.inputs
        assert back.outputs == n.outputs
        tt_a, tt_b = truth_table(n), truth_table(back)
        assert all(tt_a[o] == tt_b[o] for o in n.outputs)

    def test_header_comments(self):
        n = random_netlist(3, 5, seed=9)
        text = format_bench(n, header_comments=("generated for test",))
        assert "# generated for test" in text
        parse_bench(text)
