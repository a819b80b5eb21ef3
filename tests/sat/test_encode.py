"""Checks of the one Tseitin gate encoder, :func:`encode_gate`.

Each gate's clauses are enumerated over all input assignments: exactly
the assignments where ``out == f(ins)`` may satisfy the clause set.  A
golden table pins the exact clauses and auxiliary-variable numbers,
because the attack miter's numbering (and so cross-process learned
clause import) depends on them.
"""

import itertools

import pytest

from repro.circuit.cnf import encode_gate
from repro.circuit.gates import GateType, eval_gate, valid_arity
from repro.sat.cnf import CNF


def _satisfied(clauses, assignment):
    return all(
        any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
    )


def _check_gate(clauses, out_var, in_vars, func, aux_vars=()):
    """For every (ins, out) combo: clauses satisfiable iff out == f(ins)."""
    for in_bits in itertools.product([False, True], repeat=len(in_vars)):
        for out_bit in (False, True):
            expected = out_bit == func(in_bits)
            feasible = False
            for aux_bits in itertools.product(
                [False, True], repeat=len(aux_vars)
            ):
                assignment = dict(zip(in_vars, in_bits))
                assignment[out_var] = out_bit
                assignment.update(dict(zip(aux_vars, aux_bits)))
                if _satisfied(clauses, assignment):
                    feasible = True
                    break
            assert feasible == expected, (in_bits, out_bit)


def _encode(gtype, out, ins, num_vars):
    """Encode one gate into a fresh CNF; return (clauses, aux vars)."""
    cnf = CNF(num_vars)
    encode_gate(cnf, gtype, out, ins)
    return cnf.clauses, list(range(num_vars + 1, cnf.num_vars + 1))


def _legal(arities):
    return [
        (gtype, arity)
        for gtype in GateType
        for arity in arities
        if valid_arity(gtype, arity)
    ]


@pytest.mark.parametrize("gtype, arity", _legal(range(5)))
def test_gate_is_exact(gtype, arity):
    """Every gate type at every legal arity 0..4."""
    ins = list(range(2, 2 + arity))
    clauses, aux = _encode(gtype, 1, ins, 1 + arity)
    _check_gate(
        clauses, 1, ins,
        lambda bits: bool(eval_gate(gtype, [int(b) for b in bits], 1)),
        aux_vars=aux,
    )


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_and(arity):
    ins = list(range(2, 2 + arity))
    clauses, _ = _encode(GateType.AND, 1, ins, 1 + arity)
    _check_gate(clauses, 1, ins, lambda bits: all(bits))


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_or(arity):
    ins = list(range(2, 2 + arity))
    clauses, _ = _encode(GateType.OR, 1, ins, 1 + arity)
    _check_gate(clauses, 1, ins, lambda bits: any(bits))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_nand(arity):
    ins = list(range(2, 2 + arity))
    clauses, _ = _encode(GateType.NAND, 1, ins, 1 + arity)
    _check_gate(clauses, 1, ins, lambda bits: not all(bits))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_nor(arity):
    ins = list(range(2, 2 + arity))
    clauses, _ = _encode(GateType.NOR, 1, ins, 1 + arity)
    _check_gate(clauses, 1, ins, lambda bits: not any(bits))


def test_not():
    clauses, _ = _encode(GateType.NOT, 1, [2], 2)
    _check_gate(clauses, 1, [2], lambda bits: not bits[0])


def test_buf():
    clauses, _ = _encode(GateType.BUF, 1, [2], 2)
    _check_gate(clauses, 1, [2], lambda bits: bits[0])


def test_xor2():
    clauses, aux = _encode(GateType.XOR, 1, [2, 3], 3)
    assert aux == []
    _check_gate(clauses, 1, [2, 3], lambda b: b[0] ^ b[1])


def test_xnor2():
    clauses, aux = _encode(GateType.XNOR, 1, [2, 3], 3)
    assert aux == []
    _check_gate(clauses, 1, [2, 3], lambda b: not (b[0] ^ b[1]))


def test_xor_nary_with_aux():
    clauses, aux = _encode(GateType.XOR, 1, [2, 3, 4, 5], 5)
    assert aux == [6, 7]
    _check_gate(
        clauses, 1, [2, 3, 4, 5],
        lambda bits: bits[0] ^ bits[1] ^ bits[2] ^ bits[3],
        aux_vars=aux,
    )


def test_xnor_nary_with_aux():
    clauses, aux = _encode(GateType.XNOR, 1, [2, 3, 4], 4)
    assert aux == [5]
    _check_gate(
        clauses, 1, [2, 3, 4],
        lambda bits: not (bits[0] ^ bits[1] ^ bits[2]),
        aux_vars=aux,
    )


class _ClauseOnlySink:
    """A sink with no variable allocator."""

    def __init__(self):
        self.clauses = []

    def add_clauses(self, clauses):
        self.clauses.extend(clauses)


def test_xor_nary_without_allocator_rejected():
    # Only an XOR chain allocates: two fanins encode without new_var,
    # three need the sink's allocator.
    sink = _ClauseOnlySink()
    encode_gate(sink, GateType.XOR, 1, [2, 3])
    assert len(sink.clauses) == 4
    with pytest.raises(AttributeError):
        encode_gate(sink, GateType.XOR, 1, [2, 3, 4])


def test_xor_single_input_is_buffer():
    clauses, _ = _encode(GateType.XOR, 1, [2], 2)
    _check_gate(clauses, 1, [2], lambda bits: bits[0])


def test_mux():
    clauses, _ = _encode(GateType.MUX, 1, [2, 3, 4], 4)
    _check_gate(
        clauses, 1, [2, 3, 4],
        lambda bits: bits[1] if bits[0] else bits[2],
    )


def test_const():
    clauses, _ = _encode(GateType.CONST1, 1, [], 1)
    _check_gate(clauses, 1, [], lambda bits: True)
    clauses, _ = _encode(GateType.CONST0, 1, [], 1)
    _check_gate(clauses, 1, [], lambda bits: False)


def test_negated_operands_work():
    # out = AND(!a, b) via negated literal.
    clauses, _ = _encode(GateType.AND, 1, [-2, 3], 3)
    _check_gate(clauses, 1, [2, 3], lambda bits: (not bits[0]) and bits[1])


def test_negated_output_works():
    # !out = XOR(a, b, c) through the aux chain.
    clauses, aux = _encode(GateType.XOR, -1, [2, 3, 4], 4)
    _check_gate(
        clauses, 1, [2, 3, 4],
        lambda bits: not (bits[0] ^ bits[1] ^ bits[2]),
        aux_vars=aux,
    )


def test_empty_and_is_true():
    clauses, _ = _encode(GateType.AND, 1, [], 1)
    _check_gate(clauses, 1, [], lambda bits: True)


def test_empty_or_is_false():
    clauses, _ = _encode(GateType.OR, 1, [], 1)
    _check_gate(clauses, 1, [], lambda bits: False)


def test_empty_xor_is_false():
    clauses, _ = _encode(GateType.XOR, 1, [], 1)
    _check_gate(clauses, 1, [], lambda bits: False)


# (gtype, arity) -> (num_vars, clauses) for encode_gate(CNF(5), gtype,
# 5, [1, -2, 3, -4][:arity]).  Variables above 5 are XOR-chain aux
# variables, numbered in chain order.
_GOLDEN = {
    (GateType.AND, 1): (5, [[-5, 1], [5, -1]]),
    (GateType.AND, 2): (5, [[-5, 1], [-5, -2], [5, -1, 2]]),
    (GateType.AND, 3): (5, [[-5, 1], [-5, -2], [-5, 3], [5, -1, 2, -3]]),
    (GateType.AND, 4): (
        5,
        [[-5, 1], [-5, -2], [-5, 3], [-5, -4], [5, -1, 2, -3, 4]],
    ),
    (GateType.OR, 1): (5, [[5, -1], [-5, 1]]),
    (GateType.OR, 2): (5, [[5, -1], [5, 2], [-5, 1, -2]]),
    (GateType.OR, 3): (5, [[5, -1], [5, 2], [5, -3], [-5, 1, -2, 3]]),
    (GateType.OR, 4): (
        5,
        [[5, -1], [5, 2], [5, -3], [5, 4], [-5, 1, -2, 3, -4]],
    ),
    (GateType.NAND, 1): (5, [[5, 1], [-5, -1]]),
    (GateType.NAND, 2): (5, [[5, 1], [5, -2], [-5, -1, 2]]),
    (GateType.NAND, 3): (5, [[5, 1], [5, -2], [5, 3], [-5, -1, 2, -3]]),
    (GateType.NAND, 4): (
        5,
        [[5, 1], [5, -2], [5, 3], [5, -4], [-5, -1, 2, -3, 4]],
    ),
    (GateType.NOR, 1): (5, [[-5, -1], [5, 1]]),
    (GateType.NOR, 2): (5, [[-5, -1], [-5, 2], [5, 1, -2]]),
    (GateType.NOR, 3): (5, [[-5, -1], [-5, 2], [-5, -3], [5, 1, -2, 3]]),
    (GateType.NOR, 4): (
        5,
        [[-5, -1], [-5, 2], [-5, -3], [-5, 4], [5, 1, -2, 3, -4]],
    ),
    (GateType.XOR, 1): (5, [[-5, 1], [5, -1]]),
    (GateType.XOR, 2): (5, [[-5, 1, -2], [-5, -1, 2], [5, -1, -2], [5, 1, 2]]),
    (GateType.XOR, 3): (
        6,
        [
            [-6, 1, -2], [-6, -1, 2], [6, -1, -2], [6, 1, 2],
            [-5, 6, 3], [-5, -6, -3], [5, -6, 3], [5, 6, -3],
        ],
    ),
    (GateType.XOR, 4): (
        7,
        [
            [-6, 1, -2], [-6, -1, 2], [6, -1, -2], [6, 1, 2],
            [-7, 6, 3], [-7, -6, -3], [7, -6, 3], [7, 6, -3],
            [-5, 7, -4], [-5, -7, 4], [5, -7, -4], [5, 7, 4],
        ],
    ),
    (GateType.XNOR, 1): (5, [[5, 1], [-5, -1]]),
    (GateType.XNOR, 2): (5, [[5, 1, -2], [5, -1, 2], [-5, -1, -2], [-5, 1, 2]]),
    (GateType.XNOR, 3): (
        6,
        [
            [-6, 1, -2], [-6, -1, 2], [6, -1, -2], [6, 1, 2],
            [5, 6, 3], [5, -6, -3], [-5, -6, 3], [-5, 6, -3],
        ],
    ),
    (GateType.XNOR, 4): (
        7,
        [
            [-6, 1, -2], [-6, -1, 2], [6, -1, -2], [6, 1, 2],
            [-7, 6, 3], [-7, -6, -3], [7, -6, 3], [7, 6, -3],
            [5, 7, -4], [5, -7, 4], [-5, -7, -4], [-5, 7, 4],
        ],
    ),
    (GateType.NOT, 1): (5, [[5, 1], [-5, -1]]),
    (GateType.BUF, 1): (5, [[-5, 1], [5, -1]]),
    (GateType.MUX, 3): (
        5,
        [[-1, 2, 5], [-1, -2, -5], [1, -3, 5], [1, 3, -5], [2, -3, 5], [-2, 3, -5]],
    ),
    (GateType.CONST0, 0): (5, [[-5]]),
    (GateType.CONST1, 0): (5, [[5]]),
}


def test_golden_covers_every_legal_gate():
    expected = set(_legal(range(1, 5)))
    expected |= {(GateType.CONST0, 0), (GateType.CONST1, 0)}
    assert set(_GOLDEN) == expected


@pytest.mark.parametrize("gtype, arity", list(_GOLDEN))
def test_golden_clauses(gtype, arity):
    cnf = CNF(5)
    encode_gate(cnf, gtype, 5, [1, -2, 3, -4][:arity])
    assert (cnf.num_vars, cnf.clauses) == _GOLDEN[gtype, arity]
