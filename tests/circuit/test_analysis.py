"""Structural analysis tests: levels, cones, key-influence ranking."""

from repro.circuit.analysis import (
    depth,
    fanin_cone,
    fanout_cone,
    levelize,
    rank_inputs_by_key_influence,
)
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist


def _diamond() -> Netlist:
    #   a   b    k
    #    \ / \  /
    #     m    n      m = AND(a,b); n = XOR(b,k)
    #      \  /
    #       y         y = OR(m,n)
    n = Netlist("diamond")
    n.add_inputs(["a", "b", "k"])
    n.add_gate("m", GateType.AND, ["a", "b"])
    n.add_gate("n", GateType.XOR, ["b", "k"])
    n.add_gate("y", GateType.OR, ["m", "n"])
    n.set_outputs(["y"])
    return n


class TestLevels:
    def test_levelize(self):
        levels = levelize(_diamond())
        assert levels["a"] == 0
        assert levels["m"] == 1
        assert levels["y"] == 2

    def test_depth(self):
        assert depth(_diamond()) == 2

    def test_empty_netlist_depth(self):
        n = Netlist()
        n.add_input("a")
        assert depth(n) == 0


class TestCones:
    def test_fanin_cone(self):
        assert fanin_cone(_diamond(), "m") == {"m", "a", "b"}
        assert fanin_cone(_diamond(), "y") == {"y", "m", "n", "a", "b", "k"}

    def test_fanout_cone(self):
        assert fanout_cone(_diamond(), "a") == {"m", "y"}
        assert fanout_cone(_diamond(), "b") == {"m", "n", "y"}
        assert fanout_cone(_diamond(), "y") == set()


def _controlled(netlist: Netlist, seeds) -> set[str]:
    """Gate outputs :meth:`CompiledCircuit.tainted_slots` marks from
    the ``seeds`` nets: those with a seed in their fanin cone."""
    compiled = netlist.compile()
    tainted = compiled.tainted_slots(compiled.slot_of[net] for net in seeds)
    return {
        compiled.net_names[out]
        for out in compiled.gate_output_slots
        if tainted[out]
    }


class TestKeyInfluence:
    def test_key_controlled_gates(self):
        assert _controlled(_diamond(), ["k"]) == {"n", "y"}

    def test_no_keys_means_nothing_controlled(self):
        assert _controlled(_diamond(), []) == set()

    def test_all_inputs_taint_everything(self):
        n = _diamond()
        assert _controlled(n, n.inputs) == {"m", "n", "y"}

    def test_ranking_prefers_influential_input(self):
        # b reaches n and y (2 controlled gates); a reaches only y.
        ranked = rank_inputs_by_key_influence(_diamond(), ["k"])
        assert ranked[0][0] == "b"
        assert ranked[0][1] == 2
        counts = dict(ranked)
        assert counts["a"] == 1

    def test_ranking_deterministic_tie_break(self):
        n = Netlist()
        n.add_inputs(["a", "b", "k"])
        n.add_gate("x", GateType.AND, ["a", "k"])
        n.add_gate("y", GateType.AND, ["b", "k"])
        n.set_outputs(["x", "y"])
        ranked = rank_inputs_by_key_influence(n, ["k"])
        assert [r[0] for r in ranked] == ["a", "b"]  # tie -> input order

    def test_explicit_candidates(self):
        ranked = rank_inputs_by_key_influence(
            _diamond(), ["k"], candidates=["a"]
        )
        assert ranked == [("a", 1)]
