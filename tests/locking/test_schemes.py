"""Per-scheme locking tests: XOR, SARLock, Anti-SAT, LUT insertion."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import truth_table
from repro.locking.antisat import antisat_lock
from repro.locking.base import LockingError
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock


class TestXorLock:
    def test_correct_key_unlocks(self, small_circuit):
        lk = xor_lock(small_circuit, 5, seed=1)
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent

    def test_wrong_keys_usually_corrupt(self, small_circuit):
        # XOR locking does not guarantee corruption for every wrong key
        # (two flipped wires can mask each other), but the large
        # majority of wrong keys must corrupt, and the correct key never.
        lk = xor_lock(small_circuit, 5, seed=1)
        tt_orig = truth_table(small_circuit)
        corrupting = 0
        for wrong in range(1, 32):
            keyed = lk.apply_key(lk.correct_key_int ^ wrong)
            tt_keyed = truth_table(keyed)
            if any(tt_orig[o] != tt_keyed[o] for o in small_circuit.outputs):
                corrupting += 1
        assert corrupting >= 24  # >= ~75% of the 31 wrong keys

    def test_key_count_bounded_by_gates(self):
        tiny = random_netlist(3, 4, seed=0)
        with pytest.raises(LockingError):
            xor_lock(tiny, 10)

    def test_explicit_correct_key(self, small_circuit):
        lk = xor_lock(small_circuit, 4, seed=2, correct_key=(1, 0, 1, 1))
        assert lk.correct_key == (1, 0, 1, 1)
        assert lk.verify_key(small_circuit, (1, 0, 1, 1)).equivalent

    def test_gate_count_grows_by_key_size(self, small_circuit):
        lk = xor_lock(small_circuit, 6, seed=3)
        assert lk.netlist.num_gates == small_circuit.num_gates + 6


class TestSarlock:
    def test_correct_key_unlocks(self, small_circuit):
        lk = sarlock_lock(small_circuit, 4, seed=5)
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent

    def test_error_law(self, small_circuit):
        """Error iff protected-input pattern == key != k*."""
        from repro.metrics.engine import error_matrix

        lk = sarlock_lock(small_circuit.copy(), 3, correct_key=0b010)
        matrix = error_matrix(lk, small_circuit)
        protected = lk.meta["protected_inputs"]
        pos = {net: j for j, net in enumerate(lk.original_inputs)}
        for i in range(1 << len(lk.original_inputs)):
            restricted = 0
            for j, net in enumerate(protected):
                restricted |= ((i >> pos[net]) & 1) << j
            for k in range(8):
                expected = (restricted == k) and (k != 0b010)
                assert matrix[i][k] == expected

    def test_every_wrong_key_corrupts_exactly_one_pattern(self):
        original = random_netlist(4, 20, seed=8)
        lk = sarlock_lock(original, 4, correct_key=7)
        from repro.metrics.engine import error_matrix

        matrix = error_matrix(lk, original)
        for k in range(16):
            errors = sum(matrix[i][k] for i in range(16))
            assert errors == (0 if k == 7 else 1)

    def test_key_size_exceeding_inputs_rejected(self, small_circuit):
        with pytest.raises(LockingError):
            sarlock_lock(small_circuit, 20)

    def test_explicit_protected_inputs(self, small_circuit):
        protected = list(reversed(small_circuit.inputs[:4]))
        lk = sarlock_lock(small_circuit, 4, protected_inputs=protected)
        assert lk.meta["protected_inputs"] == protected
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent

    def test_unknown_protected_input_rejected(self, small_circuit):
        with pytest.raises(LockingError):
            sarlock_lock(small_circuit, 2, protected_inputs=["pi0", "ghost"])

    def test_explicit_flip_output(self, small_circuit):
        target = small_circuit.outputs[-1]
        lk = sarlock_lock(small_circuit, 3, flip_output=target)
        assert lk.meta["flip_output"] == target
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent


class TestAntisat:
    def test_any_equal_halves_key_is_correct(self, small_circuit):
        lk = antisat_lock(small_circuit, 4, seed=2)
        for half in (0b0000, 0b1010, 0b1111):
            key = half | (half << 4)
            assert lk.verify_key(small_circuit, key).equivalent

    def test_unequal_halves_corrupt_one_pattern(self):
        original = random_netlist(4, 20, seed=3)
        lk = antisat_lock(original, 3, seed=2)
        from repro.metrics.engine import error_matrix

        matrix = error_matrix(lk, original)
        for k in range(1 << 6):
            ka, kb = k & 0b111, k >> 3
            errors = sum(matrix[i][k] for i in range(16))
            if ka == kb:
                assert errors == 0
            else:
                assert errors >= 1

    def test_width_bounds(self, small_circuit):
        with pytest.raises(LockingError):
            antisat_lock(small_circuit, 0)
        with pytest.raises(LockingError):
            antisat_lock(small_circuit, 10)

    def test_key_size_is_2n(self, small_circuit):
        assert antisat_lock(small_circuit, 5).key_size == 10


class TestLutLock:
    def test_spec_key_bits(self):
        assert LutModuleSpec.tiny().key_bits == 24
        assert LutModuleSpec.small().key_bits == 48
        assert LutModuleSpec.paper_scale().key_bits == 160

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LutModuleSpec(stage1_width=0)
        with pytest.raises(ValueError):
            LutModuleSpec(num_stage1=9, stage2_width=4)
        with pytest.raises(ValueError):
            LutModuleSpec(stage2_width=9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correct_key_unlocks(self, seed):
        original = random_netlist(8, 60, seed=40 + seed)
        lk = lut_lock(original, LutModuleSpec.tiny(), seed=seed)
        assert lk.verify_key(original, lk.correct_key).equivalent

    def test_key_size_matches_spec(self, small_circuit):
        spec = LutModuleSpec.tiny()
        lk = lut_lock(small_circuit, spec, seed=1)
        assert lk.key_size == spec.key_bits

    def test_no_key_inputs_used_as_lut_sources(self, small_circuit):
        lk = lut_lock(small_circuit, LutModuleSpec.tiny(), seed=1)
        assert not (set(lk.meta["module_source_nets"]) & set(lk.key_inputs))

    def test_netlist_remains_acyclic(self, small_circuit):
        lk = lut_lock(small_circuit, LutModuleSpec.tiny(), seed=4)
        lk.netlist.validate()

    def test_explicit_target(self, small_circuit):
        from repro.locking.lut_lock import _candidate_targets

        spec = LutModuleSpec.tiny()
        target = _candidate_targets(small_circuit, spec)[0]
        lk = lut_lock(small_circuit, spec, target=target)
        assert lk.meta["target"] == target
        assert lk.verify_key(small_circuit, lk.correct_key).equivalent

    def test_bad_target_rejected(self, small_circuit):
        with pytest.raises(LockingError):
            lut_lock(small_circuit, LutModuleSpec.tiny(), target="pi0")

    def test_flipped_truth_table_bit_changes_function(self):
        original = random_netlist(6, 40, seed=77)
        lk = lut_lock(original, LutModuleSpec.tiny(), seed=0)
        wrong = list(lk.correct_key)
        # Find a truth-table bit whose flip corrupts (some bits are
        # don't-cares for padded input combinations that can't occur —
        # so scan until corruption appears).
        corrupted = False
        for i in range(len(wrong)):
            candidate = list(lk.correct_key)
            candidate[i] ^= 1
            if not lk.verify_key(original, candidate).equivalent:
                corrupted = True
                break
        assert corrupted
