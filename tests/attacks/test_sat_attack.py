"""SAT-attack tests: recovery, pinning, budgets, oracle accounting."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.brute_force import brute_force_keys
from repro.attacks.sat_attack import (
    _add_dip_copies,
    build_miter_encoding,
    sat_attack,
    verify_key_against_oracle,
)
from repro.circuit.cnf import encode_gate
from repro.circuit.gates import GateType, eval_gate
from repro.circuit.random_circuits import random_netlist
from repro.locking.antisat import antisat_lock
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.oracle.oracle import Oracle
from repro.sat.solver import Solver


class TestRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_xor_lock_recovered(self, seed):
        original = random_netlist(7, 50, seed=seed)
        locked = xor_lock(original, 6, seed=seed)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded
        assert locked.verify_key(original, result.key).equivalent

    def test_sarlock_recovered_with_exact_dip_count(self):
        original = random_netlist(8, 50, seed=7)
        locked = sarlock_lock(original, 5, seed=1)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded
        assert result.key_int == locked.correct_key_int
        assert result.num_dips == 2**5 - 1  # one DIP per wrong key

    def test_antisat_recovered(self):
        original = random_netlist(7, 40, seed=9)
        locked = antisat_lock(original, 4, seed=2)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded
        assert locked.verify_key(original, result.key).equivalent

    def test_lut_lock_recovered(self):
        original = random_netlist(8, 60, seed=11)
        locked = lut_lock(original, LutModuleSpec.tiny(), seed=3)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded
        assert locked.verify_key(original, result.key).equivalent

    def test_unused_key_bits_default(self):
        """Keys not influencing any output are returned arbitrarily but
        the attack still succeeds."""
        original = random_netlist(6, 30, seed=5)
        locked = xor_lock(original, 3, seed=5)
        # Add a dangling key input.
        locked.netlist.add_input("keyinput_unused")
        locked.key_inputs.append("keyinput_unused")
        locked.correct_key = tuple(locked.correct_key) + (0,)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded


class TestBenchCircuitParity:
    """Refactor parity anchors on a bench circuit.

    The recovered key, the DIP count and the oracle accounting are the
    observable contract of the attack; the SARLock DIP count is exactly
    ``2^|K| - 1`` regardless of how the miter is encoded, so any drift
    introduced by the compiled-IR path shows up here immediately.
    """

    def test_bench_circuit_key_and_dip_count(self):
        from repro.bench_circuits.iscas85 import iscas85_like

        original = iscas85_like("c432", 0.25)
        locked = sarlock_lock(original, 5, seed=4)
        oracle = Oracle(original)
        result = sat_attack(locked, oracle)
        assert result.succeeded
        assert result.key_int == locked.correct_key_int
        assert result.num_dips == 2**5 - 1
        assert oracle.query_count == result.num_dips
        assert locked.verify_key(original, result.key).equivalent

    def test_bench_circuit_xor_lock_equivalent_key(self):
        from repro.bench_circuits.iscas85 import iscas85_like

        original = iscas85_like("c880", 0.2)
        locked = xor_lock(original, 6, seed=8)
        result = sat_attack(locked, Oracle(original))
        assert result.succeeded
        assert locked.verify_key(original, result.key).equivalent


class TestPinnedAttacks:
    @given(pin_bits=st.integers(0, 3))
    def test_pinned_key_unlocks_subspace(self, pin_bits):
        original = random_netlist(6, 35, seed=21)
        locked = sarlock_lock(original, 4, seed=2)
        pin = {
            original.inputs[0]: bool(pin_bits & 1),
            original.inputs[1]: bool(pin_bits & 2),
        }
        result = sat_attack(locked, Oracle(original), pin=pin)
        assert result.succeeded
        good = brute_force_keys(locked, Oracle(original), pin=pin)
        assert result.key_int in good

    def test_pinning_reduces_dips_for_sarlock(self):
        original = random_netlist(8, 40, seed=23)
        locked = sarlock_lock(original, 5, seed=0)
        full = sat_attack(locked, Oracle(original))
        pinned = sat_attack(
            locked, Oracle(original), pin={original.inputs[0]: False}
        )
        assert pinned.num_dips < full.num_dips

    def test_pin_on_key_port_rejected(self):
        original = random_netlist(6, 30, seed=2)
        locked = xor_lock(original, 3, seed=1)
        with pytest.raises(ValueError):
            sat_attack(
                locked, Oracle(original), pin={locked.key_inputs[0]: True}
            )

    def test_pin_on_unknown_net_rejected(self):
        original = random_netlist(6, 30, seed=2)
        locked = xor_lock(original, 3, seed=1)
        with pytest.raises(ValueError):
            sat_attack(locked, Oracle(original), pin={"ghost": True})


class TestBudgets:
    def test_max_dips(self):
        original = random_netlist(8, 40, seed=31)
        locked = sarlock_lock(original, 6, seed=0)
        result = sat_attack(locked, Oracle(original), max_dips=5)
        assert result.status == "dip_limit"
        assert result.num_dips == 5
        assert result.key is None

    def test_time_limit(self):
        original = random_netlist(8, 40, seed=32)
        locked = sarlock_lock(original, 8, seed=0)
        result = sat_attack(locked, Oracle(original), time_limit=0.05)
        assert result.status == "timeout"
        assert result.key is None

    def test_iteration_records(self):
        original = random_netlist(6, 30, seed=33)
        locked = sarlock_lock(original, 3, seed=0)
        result = sat_attack(locked, Oracle(original), record_iterations=True)
        assert len(result.iterations) == result.num_dips
        assert all(it.elapsed_seconds >= 0 for it in result.iterations)
        dips = [it.dip for it in result.iterations]
        assert all(set(d) == set(locked.original_inputs) for d in dips)

    def test_record_iterations_off(self):
        original = random_netlist(6, 30, seed=34)
        locked = sarlock_lock(original, 3, seed=0)
        result = sat_attack(locked, Oracle(original), record_iterations=False)
        assert result.iterations == []


class TestOracleAccounting:
    def test_queries_equal_dips(self):
        original = random_netlist(7, 35, seed=41)
        locked = sarlock_lock(original, 4, seed=0)
        oracle = Oracle(original)
        result = sat_attack(locked, oracle)
        assert oracle.query_count == result.num_dips
        assert result.oracle_queries == result.num_dips


class TestVerifyAgainstOracle:
    def test_correct_key_passes(self):
        original = random_netlist(6, 30, seed=51)
        locked = xor_lock(original, 4, seed=1)
        assert verify_key_against_oracle(
            locked, locked.correct_key_int, Oracle(original)
        )

    def test_corrupting_key_fails(self):
        original = random_netlist(6, 30, seed=52)
        locked = xor_lock(original, 4, seed=1)
        wrong = locked.correct_key_int ^ 0b1111
        assert not verify_key_against_oracle(
            locked, wrong, Oracle(original), num_samples=256
        )

    def test_subspace_key_passes_with_pin(self):
        original = random_netlist(6, 30, seed=53)
        locked = sarlock_lock(original, 4, seed=3)
        pin = {original.inputs[0]: False}
        good = brute_force_keys(locked, Oracle(original), pin=pin)
        subspace_only = [k for k in good if k != locked.correct_key_int]
        if subspace_only:
            key = subspace_only[0]
            assert verify_key_against_oracle(
                locked, key, Oracle(original), pin=pin, num_samples=128
            )


class TestBruteForce:
    def test_full_space_finds_only_correct_sarlock_key(self):
        original = random_netlist(5, 25, seed=61)
        locked = sarlock_lock(original, 4, seed=2)
        assert brute_force_keys(locked, Oracle(original)) == [
            locked.correct_key_int
        ]

    def test_antisat_diagonal_keys(self):
        original = random_netlist(5, 25, seed=62)
        locked = antisat_lock(original, 3, seed=2)
        good = brute_force_keys(locked, Oracle(original))
        expected = [h | (h << 3) for h in range(8)]
        assert sorted(good) == sorted(expected)

    def test_size_guard(self):
        original = random_netlist(12, 40, seed=63)
        locked = xor_lock(original, 12, seed=0)
        with pytest.raises(ValueError):
            brute_force_keys(locked, Oracle(original))


# ----------------------------------------------------------------------
# Per-DIP copy parity: hash-consed copies == folding each half anew
# ----------------------------------------------------------------------
def _sat_attack_module():
    import importlib

    # The package re-exports the function under the module's name.
    return importlib.import_module("repro.attacks.sat_attack")


def _fold_gate(solver, gtype, ins, true_var):
    """Fold one copy gate over ``±true_var`` constants, no sharing."""
    TRUE, FALSE = true_var, -true_var
    if gtype is GateType.CONST0:
        return FALSE
    if gtype is GateType.CONST1:
        return TRUE
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return -ins[0]
    if gtype is GateType.MUX:
        sel, d1, d0 = ins
        if sel == TRUE:
            return d1
        if sel == FALSE:
            return d0
        if d1 == d0:
            return d1
    if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        conjunctive = gtype in (GateType.AND, GateType.NAND)
        inverted = gtype in (GateType.NAND, GateType.NOR)
        killer = FALSE if conjunctive else TRUE  # absorbing constant
        live = []
        for lit in ins:
            if lit == killer:
                return -killer if inverted else killer
            if lit != TRUE and lit != FALSE:
                live.append(lit)
        if not live:  # every input was the identity constant
            return killer if inverted else -killer
        if len(live) == 1:
            return -live[0] if inverted else live[0]
        out = solver.new_var()
        encode_gate(solver, GateType.AND if conjunctive else GateType.OR, out, live)
        return -out if inverted else out
    if gtype in (GateType.XOR, GateType.XNOR):
        parity = gtype is GateType.XNOR
        live = []
        for lit in ins:
            if lit == TRUE:
                parity = not parity
            elif lit != FALSE:
                live.append(lit)
        if not live:
            return TRUE if parity else FALSE
        if len(live) == 1:
            return -live[0] if parity else live[0]
        out = solver.new_var()
        encode_gate(solver, GateType.XNOR if parity else GateType.XOR, out, live)
        return out
    out = solver.new_var()
    encode_gate(solver, gtype, out, ins)
    return out


def _reference_dip_copies(enc, values, response, guard):
    """The fold-each-half per-DIP copy: both key vectors folded anew."""
    solver = enc.solver
    compiled = enc.compiled
    true_var = enc.true_var
    for key_vars in (enc.key1, enc.key2):
        copy_lits = [0] * compiled.num_slots
        for i in enc.cone_idx:
            ins = []
            for s in compiled.gate_fanin_slots[i]:
                lit = copy_lits[s] or key_vars[s]
                if lit:
                    ins.append(lit)
                else:
                    ins.append(true_var if values[s] else -true_var)
            copy_lits[compiled.gate_output_slots[i]] = _fold_gate(
                solver, compiled.gate_types[i], ins, true_var
            )
        for po, po_slot in enc.controlled_pos:
            out = copy_lits[po_slot]
            lit = out if response[po] else -out
            if guard is None:
                solver.add_clause([lit])
            else:
                solver.add_clause([-guard, lit])


class _RecordingSolver(Solver):
    """Python backend that logs every added clause."""

    def __init__(self):
        super().__init__()
        self.log = []

    def add_clause(self, lits):
        self.log.append(tuple(lits))
        return super().add_clause(lits)


#: scheme -> ((inputs, gates, seed) of the carrier, lock function).
_PARITY_LOCKS = {
    "sarlock": ((8, 50, 7), lambda net: sarlock_lock(net, 5, seed=1)),
    "antisat": ((7, 40, 9), lambda net: antisat_lock(net, 4, seed=2)),
    "xor": ((7, 50, 3), lambda net: xor_lock(net, 6, seed=3)),
    "lut": ((8, 60, 11), lambda net: lut_lock(net, LutModuleSpec.tiny(), seed=3)),
}


def _parity_lock(scheme):
    (inputs, gates, seed), lock = _PARITY_LOCKS[scheme]
    original = random_netlist(inputs, gates, seed=seed)
    return original, lock(original)


def _key_pairs(enc):
    """Every (key1, key2) assignment, as assumption literal lists."""
    slots = [enc.compiled.slot_of[net] for net in enc.key_inputs]
    key_vars = [enc.key1[s] for s in slots] + [enc.key2[s] for s in slots]
    for bits in itertools.product((1, -1), repeat=len(key_vars)):
        yield [bit * var for bit, var in zip(bits, key_vars)]


def _entails(locked, oracle, dips, premise, conclusion, guarded):
    """Every key pair ``premise``'s copies admit, ``conclusion``'s admit too.

    Both encoders constrain one encoding with the same DIPs.  The
    premise's PO units sit at root, or under an assumed guard when
    ``guarded``; the conclusion's sit under their own guard ``g``.
    Every copy gate is a Tseitin function of the keys, so "some
    conclusion unit fails" is the one clause ``-d | -u1 | -u2 ...``, and
    UNSAT under ``d`` proves the entailment over all key pairs at once.
    Checked after every DIP; keys of at most six bits are also
    enumerated pair by pair after the first one.
    """
    enc = build_miter_encoding(locked, solver=_RecordingSolver())
    solver, compiled = enc.solver, enc.compiled
    premise_guard = [solver.new_var()] if guarded else []
    guard = solver.new_var()
    units = []
    for n, dip in enumerate(dips):
        values = compiled.eval_words([dip.get(net, 0) for net in compiled.inputs], 1)
        response = oracle.query(dip)
        premise(enc, values, response, premise_guard[0] if guarded else None)
        mark = len(solver.log)
        conclusion(enc, values, response, guard)
        units += [lits[1] for lits in solver.log[mark:] if lits[0] == -guard]
        # Both admit the correct key pair, so neither side is vacuous.
        assert solver.solve(assumptions=premise_guard + [guard])
        fails = solver.new_var()
        solver.add_clause([-fails] + [-lit for lit in units])
        if solver.solve(assumptions=premise_guard + [fails]):
            return False
        if n == 0 and len(enc.key_inputs) <= 6:
            for pair in _key_pairs(enc):
                if solver.solve(assumptions=premise_guard + pair) and not (
                    solver.solve(assumptions=premise_guard + pair + [guard])
                ):
                    return False
    return True


def _reference_dips(locked, original, monkeypatch):
    """The DIPs of an attack run on the fold-each-half reference."""
    with monkeypatch.context() as patch:
        patch.setattr(_sat_attack_module(), "_add_dip_copies", _reference_dip_copies)
        return [it.dip for it in sat_attack(locked, Oracle(original)).iterations]


#: Premise/conclusion orders that together prove equal admitted sets.
_BOTH_WAYS = (
    (_add_dip_copies, _reference_dip_copies),
    (_reference_dip_copies, _add_dip_copies),
)


class TestDipCopyParity:
    """The hash-consed copies and the fold-each-half reference admit the
    same (key1, key2) pairs after every DIP — the log of what each DIP
    rules out is identical — unguarded (single attack) and guarded
    (shards); end to end, the attack keeps its DIP count and keys."""

    @pytest.mark.parametrize("scheme", sorted(_PARITY_LOCKS))
    def test_single_attack_log_identical(self, scheme, monkeypatch):
        original, locked = _parity_lock(scheme)
        dips = _reference_dips(locked, original, monkeypatch)
        for premise, conclusion in _BOTH_WAYS:
            assert _entails(
                locked, Oracle(original), dips, premise, conclusion, False
            )
        result = sat_attack(locked, Oracle(original), max_dips=2 * len(dips) + 1)
        assert result.succeeded
        assert locked.verify_key(original, result.key).equivalent
        if scheme == "sarlock":
            assert result.num_dips == len(dips) == 2**5 - 1

    @pytest.mark.parametrize("scheme", sorted(_PARITY_LOCKS))
    def test_guarded_shard_log_identical(self, scheme, monkeypatch):
        from repro.core.compose import verify_composition
        from repro.core.sharded import ShardEngine

        original, locked = _parity_lock(scheme)
        dips = _reference_dips(locked, original, monkeypatch)
        for premise, conclusion in _BOTH_WAYS:
            assert _entails(
                locked, Oracle(original), dips, premise, conclusion, True
            )
        splitting = list(original.inputs[:2])
        engine = ShardEngine(locked, Oracle(original), splitting)
        shards = [
            engine.run_shard(index, max_dips=2 * len(dips) + 1)
            for index in range(4)
        ]
        assert all(s.status == "ok" for s in shards)
        assert verify_composition(
            locked, splitting, [s.key for s in shards], original
        ).equivalent


class TestCopyGate:
    """``MiterEncoding.copy_gate`` folds and shares gates without
    changing what any of them computes, on either key half."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_literal_and_twin_compute_the_gate(self, data):
        locked = xor_lock(random_netlist(4, 12, seed=7), 3, seed=1)
        enc = build_miter_encoding(locked)
        key_slots = [enc.compiled.slot_of[net] for net in enc.key_inputs]
        pool = [enc.true_var] + [enc.key1[s] for s in key_slots]
        gates = []
        for _ in range(data.draw(st.integers(1, 8))):
            gtype = data.draw(st.sampled_from(list(GateType)))
            if gtype in (GateType.CONST0, GateType.CONST1):
                arity = 0
            elif gtype in (GateType.BUF, GateType.NOT):
                arity = 1
            else:
                arity = 3 if gtype is GateType.MUX else data.draw(st.integers(1, 4))
            ins = [
                data.draw(st.sampled_from(pool)) * data.draw(st.sampled_from((1, -1)))
                for _ in range(arity)
            ]
            out = enc.copy_gate(gtype, ins)
            gates.append((gtype, ins, out))
            pool.append(abs(out))
        twin = enc.copy_twin

        def value(lit):
            return int(enc.solver.model_value(abs(lit))) ^ (lit < 0)

        for pair in _key_pairs(enc):
            assert enc.solver.solve(assumptions=pair)
            for gtype, ins, out in gates:
                assert value(out) == eval_gate(gtype, [value(i) for i in ins], 1)
                assert value(twin[out]) == eval_gate(
                    gtype, [value(twin[i]) for i in ins], 1
                )


class TestCopyCounterGate:
    """Shared copy gates cut solver work, measured on exact counters."""

    @pytest.mark.parametrize("lock_seed", [1, 2])
    def test_c432_sarlock_propagations(self, lock_seed, monkeypatch):
        from repro.bench_circuits.corpus import resolve_circuit

        original = resolve_circuit("real_c432")
        locked = sarlock_lock(original, 8, seed=lock_seed)
        new = sat_attack(locked, Oracle(original), record_iterations=False)
        monkeypatch.setattr(
            _sat_attack_module(), "_add_dip_copies", _reference_dip_copies
        )
        ref = sat_attack(locked, Oracle(original), record_iterations=False)
        assert new.num_dips == ref.num_dips == 2**8 - 1
        assert locked.verify_key(original, new.key).equivalent
        assert (
            new.solver_stats["propagations"]
            <= 0.8 * ref.solver_stats["propagations"]
        )
