"""SAT-attack tests: recovery, pinning, budgets, oracle accounting."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.attacks.brute_force import brute_force_keys
from repro.attacks.sat_attack import (
    _add_dip_copies,
    _dip_po_lits,
    build_miter_encoding,
    sat_attack,
    verify_key_against_oracle,
)
from repro.circuit.cnf import encode_gate
from repro.circuit.gates import GateType, eval_gate
from repro.circuit.random_circuits import random_netlist
from repro.locking.antisat import antisat_lock
from repro.locking.base import LockingError
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.registry import lock_circuit
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
# Per-DIP copy parity: crunched copies == eager copies == folding each
# half anew
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


def _eager_dip_copies(enc, values, response, guard):
    """The eager per-DIP copy: every copy gate encoded, PO units only.

    The same folded, hash-consed cone as :func:`_add_dip_copies`, but
    every placeholder is ensured in creation order (so its fanins are
    encoded before it and nothing is flattened) and each PO is one unit
    on its gate's variable — the encoding before PO clauses were
    crunched.
    """
    po_lits = _dip_po_lits(enc, values, response)
    for placeholder in list(enc.placeholders):
        enc.ensure(placeholder)
    units = [enc.ensure(lit) for lit in po_lits]
    twin = enc.copy_twin
    for lit in units + [twin[lit] for lit in units]:
        enc.solver.add_clause([lit] if guard is None else [-guard, lit])


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
    premise's PO clauses sit at root, or under an assumed guard when
    ``guarded``; the conclusion's sit under their own guard ``g``.
    Every copy gate is a Tseitin function of the keys, so each guarded
    conclusion clause ``-g | l1 | ... | lm`` fails exactly when all its
    ``li`` are false: a unit fails on ``-l1``, a longer clause on a
    fresh fail literal ``f`` with ``-f | -li`` for every ``li``.  "Some
    conclusion clause fails" is then the one clause ``-d | fail...``,
    and UNSAT under ``d`` proves the entailment over all key pairs at
    once.  Checked after every DIP; keys of at most six bits are also
    enumerated pair by pair after the first one.
    """
    enc = build_miter_encoding(locked, solver=_RecordingSolver())
    solver, compiled = enc.solver, enc.compiled
    premise_guard = [solver.new_var()] if guarded else []
    guard = solver.new_var()
    fail_lits = []
    for n, dip in enumerate(dips):
        values = compiled.eval_words([dip.get(net, 0) for net in compiled.inputs], 1)
        response = oracle.query(dip)
        premise(enc, values, response, premise_guard[0] if guarded else None)
        mark = len(solver.log)
        conclusion(enc, values, response, guard)
        for clause in solver.log[mark:]:
            if clause[0] != -guard:
                continue  # a Tseitin definition, not a DIP constraint
            if len(clause) == 2:
                fail_lits.append(-clause[1])
            else:
                fail = solver.new_var()
                solver.add_clauses([[-fail, -lit] for lit in clause[1:]])
                fail_lits.append(fail)
        # Both admit the correct key pair, so neither side is vacuous.
        assert solver.solve(assumptions=premise_guard + [guard])
        fails = solver.new_var()
        solver.add_clause([-fails] + fail_lits)
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


#: Premise/conclusion orders that together prove equal admitted sets:
#: the crunched copies against the eager ones and against the
#: fold-each-half reference, both ways.
_BOTH_WAYS = (
    (_add_dip_copies, _eager_dip_copies),
    (_eager_dip_copies, _add_dip_copies),
    (_add_dip_copies, _reference_dip_copies),
    (_reference_dip_copies, _add_dip_copies),
)


class TestDipCopyParity:
    """The crunched copies, the eager copies and the fold-each-half
    reference admit the same (key1, key2) pairs after every DIP — the
    log of what each DIP rules out is identical — unguarded (single
    attack) and guarded (shards); end to end, the attack keeps its DIP
    count and keys."""

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


#: Lock shapes of at most six key bits for the key-set property.
_LUT_SPECS = (
    LutModuleSpec(1, 1, 1), LutModuleSpec(2, 1, 1), LutModuleSpec(1, 1, 2)
)


def _small_lock(scheme, original, key_size, seed):
    if scheme == "lut":  # its key width is the spec's: 4 or 6 bits here
        return lut_lock(original, _LUT_SPECS[key_size % 3], seed=seed)
    if scheme == "antisat":
        key_size -= key_size % 2
    return lock_circuit(scheme, original, key_size=key_size, seed=seed)


def _key_set(enc, extra):
    """Per key half, the keys (as ints) the encoding admits under ``extra``."""
    slots = [enc.compiled.slot_of[net] for net in enc.key_inputs]
    sets = []
    for half in (enc.key1, enc.key2):
        key_vars = [half[s] for s in slots]
        sets.append({
            key
            for key in range(1 << len(key_vars))
            if enc.solver.solve(assumptions=extra + [
                var if key >> j & 1 else -var for j, var in enumerate(key_vars)
            ])
        })
    return sets


class TestDipKeySets:
    """Crunched and eager copies admit the same keys through frames.

    Two encodings of one lock see the same DIPs — at root, inside a
    guarded checkpoint frame, and after its rollback — one through
    :func:`_add_dip_copies`, one through :func:`_eager_dip_copies`.
    After every DIP, and after the rollback, both admit exactly the
    same key set on each key half (enumerated under assumptions), and
    the two halves agree; the rollback restores the set the frame
    opened on.  A frame's placeholders, definitions and clauses must
    all vanish with it, or the sets drift apart.
    """

    @given(
        seed=st.integers(0, 10_000),
        num_inputs=st.integers(3, 8),
        scheme=st.sampled_from(["sarlock", "antisat", "xor", "lut"]),
        key_size=st.integers(2, 6),
        phases=st.tuples(*[st.integers(0, 4)] * 3),
        data=st.data(),
    )
    def test_crunched_and_eager_admit_the_same_keys(
        self, seed, num_inputs, scheme, key_size, phases, data
    ):
        original = random_netlist(num_inputs, 4 * num_inputs, seed=seed)
        try:
            locked = _small_lock(scheme, original, key_size, seed)
        except LockingError:  # the carrier cannot host this lock
            assume(False)
        oracle = Oracle(original)
        crunched, eager = (build_miter_encoding(locked) for _ in range(2))
        encoders = ((crunched, _add_dip_copies), (eager, _eager_dip_copies))
        compiled = crunched.compiled
        inputs = list(crunched.input_vars)

        def same_keys(guards):
            sets = [
                _key_set(enc, [guard] if guard else [])
                for (enc, _), guard in zip(encoders, guards)
            ]
            assert sets[0] == sets[1]
            assert sets[0][0] == sets[0][1]
            return sets[0]

        for phase, count in zip(("root", "frame", "after"), phases):
            guards = [None, None]
            if phase == "frame":
                before = same_keys(guards)
                marks = [enc.checkpoint() for enc, _ in encoders]
                guards = [enc.solver.new_var() for enc, _ in encoders]
            for _ in range(count):
                solver = crunched.solver
                search = [crunched.act] + ([guards[0]] if guards[0] else [])
                if solver.solve(assumptions=search):
                    dip = {
                        net: int(solver.model_value(var) or 0)
                        for net, var in crunched.input_vars.items()
                    }
                else:  # no DIP left: any pattern still constrains
                    dip = {net: data.draw(st.integers(0, 1)) for net in inputs}
                values = compiled.eval_words(
                    [dip.get(net, 0) for net in compiled.inputs], 1
                )
                response = oracle.query(dip)
                for (enc, add_copies), guard in zip(encoders, guards):
                    add_copies(enc, values, response, guard)
                same_keys(guards)
            if phase == "frame":
                for (enc, _), mark in zip(encoders, marks):
                    enc.rollback(mark)
                assert same_keys([None, None]) == before


def _unskipped_dip_po_lits(enc, values, response):
    """The cone walk that skips only gates whose fanins are all constant:
    a gate with a controlling constant fanin goes through ``copy_gate``,
    which folds it to that constant."""
    compiled = enc.compiled
    true = enc.true_var
    consts = (-true, true)
    lits = list(enc.key1)
    for i in enc.cone_idx:
        fanins = compiled.gate_fanin_slots[i]
        if not any(lits[s] for s in fanins):
            continue
        out = enc.copy_gate(
            compiled.gate_types[i], [lits[s] or consts[values[s]] for s in fanins]
        )
        if out != true and out != -true:
            lits[compiled.gate_output_slots[i]] = out
    return [
        (lits[slot] or consts[values[slot]]) * (1 if response[po] else -1)
        for po, slot in enc.controlled_pos
    ]


def _copy_tables(enc):
    return (
        enc.copy_gates, enc.copy_twin, enc.placeholders, enc.placeholder_vars
    )


def _walks_agree(locked, original, phases, bit):
    """Feed both cone walks the same DIPs (input bits from ``bit()``) at
    root, inside a guarded checkpoint frame and after its rollback."""
    oracle = Oracle(original)
    skipping, unskipped = (build_miter_encoding(locked) for _ in range(2))
    walks = ((skipping, _dip_po_lits), (unskipped, _unskipped_dip_po_lits))
    compiled = skipping.compiled
    for phase, count in zip(("root", "frame", "after"), phases):
        guards = [None, None]
        if phase == "frame":
            marks = [enc.checkpoint() for enc, _ in walks]
            guards = [enc.solver.new_var() for enc, _ in walks]
        for _ in range(count):
            dip = {net: bit() for net in skipping.input_vars}
            values = compiled.eval_words(
                [dip.get(net, 0) for net in compiled.inputs], 1
            )
            response = oracle.query(dip)
            po_lits = [walk(enc, values, response) for enc, walk in walks]
            assert po_lits[0] == po_lits[1]
            for (enc, _), lits, guard in zip(walks, po_lits, guards):
                for lit in lits:
                    for clause in enc.clauses_for(lit):
                        enc.solver.add_clause(
                            clause if guard is None else [-guard, *clause]
                        )
            assert _copy_tables(skipping) == _copy_tables(unskipped)
        if phase == "frame":
            for (enc, _), mark in zip(walks, marks):
                enc.rollback(mark)
            assert _copy_tables(skipping) == _copy_tables(unskipped)


#: The NAND-heavy c1908 stand-in's cones, per scheme.
_C1908_LOCKS = {
    "lut": {"spec": LutModuleSpec.tiny()},
    "sarlock": {"key_size": 5},
    "antisat": {"key_size": 4},
    "xor": {"key_size": 6},
}


class TestConeWalkParity:
    """Skipping controlled-constant gates changes nothing a DIP builds.

    Two encodings of one lock take the same random DIPs — at root,
    inside a guarded checkpoint frame, and after its rollback — one
    walked by :func:`_dip_po_lits`, one by the unskipped walk.  Each
    DIP's PO literals are equal, and so are the copy-gate tables after
    both add the DIP's clauses.
    """

    @given(
        seed=st.integers(0, 10_000),
        num_inputs=st.integers(3, 8),
        scheme=st.sampled_from(["sarlock", "antisat", "xor", "lut"]),
        key_size=st.integers(2, 6),
        phases=st.tuples(*[st.integers(0, 6)] * 3),
        data=st.data(),
    )
    def test_random_carriers(
        self, seed, num_inputs, scheme, key_size, phases, data
    ):
        original = random_netlist(num_inputs, 4 * num_inputs, seed=seed)
        try:
            locked = _small_lock(scheme, original, key_size, seed)
        except LockingError:  # the carrier cannot host this lock
            assume(False)
        _walks_agree(
            locked, original, phases, lambda: data.draw(st.integers(0, 1))
        )

    @pytest.mark.parametrize("scheme", sorted(_C1908_LOCKS))
    def test_bench_carrier(self, scheme):
        from repro.bench_circuits.iscas85 import iscas85_like

        original = iscas85_like("c1908", 0.25)
        locked = lock_circuit(scheme, original, **_C1908_LOCKS[scheme], seed=1)
        rng = random.Random(scheme)
        _walks_agree(locked, original, (10, 10, 10), lambda: rng.randint(0, 1))


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
        # A lazy AND has no variable until ensured; ensure all of them
        # before solving, so every gate kind is checked on both halves.
        ensure = enc.ensure
        gates = [
            (gtype, [ensure(lit) for lit in ins], ensure(out))
            for gtype, ins, out in gates
        ]
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
