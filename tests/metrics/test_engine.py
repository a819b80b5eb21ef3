"""Corruption engine: exhaustive ground truth and lever parity.

Ground truth comes from circuits small enough to check by hand (a
single XOR gate; SARLock's one-error-per-key point function) and from
the BDD package's exact rates and key counts, an independent oracle.
Parity is the subsystem's contract: every metric value is bit-identical
with and without structural optimization, because optimizing changes
how the sweep runs, never which bits it produces.
"""

import pytest

from repro.attacks.brute_force import brute_force_keys
from repro.bdd.analysis import count_keys_unlocking_subspace, exact_error_rate
from repro.bench_circuits.iscas85 import c17
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.locking.registry import lock_circuit
from repro.metrics import CorruptionReport, evaluate_corruption
from repro.metrics.engine import build_sweep
from repro.oracle.oracle import Oracle

ALL_METRICS = ("corruption", "bit_flip", "avalanche", "subspace")


def single_xor_netlist() -> Netlist:
    netlist = Netlist("one_xor")
    a, b = netlist.add_inputs(["a", "b"])
    netlist.add_gate("y", GateType.XOR, [a, b])
    netlist.set_outputs(["y"])
    return netlist


class TestExhaustiveGroundTruth:
    def test_single_xor_gate_wrong_key_flips_everything(self):
        # One XOR key gate on the only wire: the wrong key inverts the
        # output on every pattern, so corruption is exactly 1.0 and the
        # flip rate is a deterministic coin with zero entropy.
        original = single_xor_netlist()
        locked = lock_circuit("xor", original, key_size=1, seed=0)
        report = evaluate_corruption(
            locked, original, metrics=ALL_METRICS, key_samples=0
        )
        assert report.exhaustive_inputs and report.exhaustive_keys
        assert report.keys_sampled == 1
        assert report.value("corruption") == 1.0
        assert report.value("bit_flip") == 1.0
        assert report.value("avalanche") == 0.0
        assert report.detail("subspace")["unlock_fraction"] == 0.0

    def test_sarlock_point_function_rate_is_exact(self):
        # SARLock's defining property: each wrong key errs on exactly
        # one of the 2^k comparator patterns.
        original = c17()
        locked = lock_circuit("sarlock", original, key_size=3, seed=2)
        report = evaluate_corruption(
            locked, original, metrics=ALL_METRICS, key_samples=0
        )
        assert report.keys_sampled == 7
        assert report.value("corruption") == pytest.approx(1 / 8)
        per_key = report.detail("corruption")["per_key"]
        assert per_key == [1 / 8] * 7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme", ["xor", "sarlock", "antisat", "entangled"])
    def test_matches_bdd_oracle(self, scheme, seed):
        # Differential check against the BDD package's exact counts:
        # every per-key rate of an exhaustive sweep, and the size of
        # every brute-forced key set, with and without a pinned input.
        original = random_netlist(6, 30, seed=seed)
        locked = lock_circuit(scheme, original, key_size=4, seed=seed)
        sweep, _ = build_sweep(locked, original, key_samples=0)
        assert sweep.exhaustive_inputs and sweep.exhaustive_keys
        report = evaluate_corruption(locked, original, key_samples=0)
        per_key = report.detail("corruption")["per_key"]
        for key, rate in zip(sweep.wrong_keys, per_key, strict=True):
            assert rate == exact_error_rate(locked, original, key)
        for pin in ({}, {original.inputs[seed]: bool(seed % 2)}):
            keys = brute_force_keys(locked, Oracle(original), pin=pin)
            assert len(keys) == count_keys_unlocking_subspace(
                locked, original, pin
            )

    def test_sarlock_subspaces_split_the_errors(self):
        # At N=1 each wrong key's single error pattern lives in exactly
        # one of the two sub-spaces: the other is unlocked exactly.
        original = c17()
        locked = lock_circuit("sarlock", original, key_size=3, seed=2)
        report = evaluate_corruption(
            locked, original, metrics=("subspace",), key_samples=0, effort=1
        )
        detail = report.detail("subspace")
        assert detail["num_subspaces"] == 2
        assert len(detail["splitting_inputs"]) == 1
        assert detail["unlock_fraction"] == pytest.approx(0.5)

    def test_report_payload_round_trips(self):
        original = c17()
        locked = lock_circuit("xor", original, key_size=2, seed=1)
        report = evaluate_corruption(
            locked, original, metrics=ALL_METRICS, key_samples=0
        )
        clone = CorruptionReport.from_payload(report.to_payload())
        assert clone.metrics == report.metrics
        assert clone.value("corruption") == report.value("corruption")
        with pytest.raises(KeyError, match="computed"):
            report.value("not_computed")


class TestLeverParity:
    """Metrics are bit-identical across every execution lever."""

    @pytest.fixture(scope="class")
    def locked_pair(self):
        original = c17()
        return lock_circuit("sarlock", original, key_size=3, seed=2), original

    def _metrics(self, locked_pair, **kwargs):
        locked, original = locked_pair
        return evaluate_corruption(
            locked, original, metrics=ALL_METRICS, key_samples=0, **kwargs
        ).metrics

    def test_optimized_matches_unoptimized(self, locked_pair, unoptimized):
        optimized = self._metrics(locked_pair)
        with unoptimized():
            assert self._metrics(locked_pair) == optimized

    def test_seed_changes_sampled_streams(self):
        # XOR lock: per-key corruption varies with the key, so a
        # different wrong-key sample shows up in the metric values.
        original = c17()
        locked = lock_circuit("xor", original, key_size=6, seed=0)
        a = evaluate_corruption(locked, original, key_samples=4, seed=0)
        b = evaluate_corruption(locked, original, key_samples=4, seed=1)
        assert a.metrics != b.metrics  # different wrong-key samples

    def test_input_samples_must_cover_subspaces(self):
        original = c17()
        locked = lock_circuit("sarlock", original, key_size=3, seed=2)
        with pytest.raises(ValueError, match="input_samples must be positive"):
            evaluate_corruption(locked, original, input_samples=0)
