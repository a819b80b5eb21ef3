"""Oracle tests."""

import pytest

from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import evaluate
from repro.oracle import oracle as oracle_mod
from repro.oracle.oracle import Oracle


def test_query_matches_simulation(small_circuit):
    oracle = Oracle(small_circuit)
    bits = {net: (i % 2) for i, net in enumerate(small_circuit.inputs)}
    assert oracle.query(bits) == evaluate(small_circuit, bits)


def test_query_counting(small_circuit):
    oracle = Oracle(small_circuit)
    assert oracle.query_count == 0
    bits = {net: 0 for net in small_circuit.inputs}
    oracle.query(bits)
    oracle.query(bits)
    assert oracle.query_count == 2


def test_query_int_packing():
    n = random_netlist(4, 15, seed=3)
    oracle = Oracle(n)
    pattern = 0b1010
    packed = oracle.query_int(pattern)
    bits = {net: (pattern >> j) & 1 for j, net in enumerate(n.inputs)}
    expected = evaluate(n, bits)
    for j, net in enumerate(n.outputs):
        assert ((packed >> j) & 1) == expected[net]


def test_interface_exposure(small_circuit):
    oracle = Oracle(small_circuit)
    assert oracle.input_names == small_circuit.inputs
    assert oracle.output_names == small_circuit.outputs


def test_query_batch_matches_per_pattern_queries(small_circuit):
    batched = Oracle(small_circuit)
    serial = Oracle(small_circuit)
    patterns = [0, 1, 0b101010, (1 << len(small_circuit.inputs)) - 1, 7]
    assert batched.query_batch(patterns) == [
        serial.query_int(p) for p in patterns
    ]


def test_query_batch_counts_one_query_per_pattern(small_circuit):
    """Batching buys speed, not a lower oracle count: W patterns in one
    sweep are still W queries."""
    oracle = Oracle(small_circuit)
    oracle.query_batch([0, 1, 2, 3])
    assert oracle.query_count == 4
    oracle.query_batch([])
    assert oracle.query_count == 4
    oracle.query_int(5)
    assert oracle.query_count == 5


def test_query_vector_matches_simulation(small_circuit):
    from repro.circuit.simulator import random_patterns, simulate

    width = 16
    stimuli = dict(
        zip(
            small_circuit.inputs,
            random_patterns(len(small_circuit.inputs), width, seed=7),
        )
    )
    oracle = Oracle(small_circuit)
    response = oracle.query_vector(stimuli, width)
    values = simulate(small_circuit, stimuli, width=width)
    assert response == {net: values[net] for net in small_circuit.outputs}
    assert oracle.query_count == width



def test_chunked_batch_matches_unchunked(monkeypatch):
    netlist = random_netlist(6, 40, seed=11)
    patterns = list(range(64))
    whole = Oracle(netlist).query_batch(patterns)
    monkeypatch.setattr(oracle_mod, "BATCH_CHUNK", 5)
    oracle = Oracle(netlist)
    assert oracle.query_batch(patterns) == whole
    # Accounting stays one query per pattern, chunking or not.
    assert oracle.query_count == len(patterns)


def test_query_vector_missing_input_message():
    netlist = random_netlist(4, 10, seed=1)
    oracle = Oracle(netlist)
    with pytest.raises(KeyError, match="missing value for primary input"):
        oracle.query_vector({netlist.inputs[0]: 1}, width=2)
