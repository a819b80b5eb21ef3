"""AppSAT approximate-attack tests."""

import pytest

from repro.attacks.appsat import appsat_attack
from repro.attacks.registry import run_attack
from repro.attacks.sat_attack import sat_attack
from repro.bench_circuits.iscas85 import c17
from repro.circuit.random_circuits import random_netlist
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.oracle.oracle import Oracle


class TestAppSat:
    def test_exact_on_easy_lock(self):
        """XOR locking converges in a handful of DIPs -> exact result."""
        original = random_netlist(7, 45, seed=81)
        locked = xor_lock(original, 5, seed=1)
        result = appsat_attack(locked, Oracle(original), dips_per_round=16)
        assert result.status == "ok"
        assert locked.verify_key(original, result.key).equivalent
        assert result.detail["estimated_error_rate"] == 0.0

    def test_settles_on_sarlock(self):
        """SARLock needs 2^|K| DIPs exactly, but any key surviving a few
        DIPs already has point-function error only -> AppSAT settles
        long before the exact attack would finish."""
        original = random_netlist(10, 60, seed=82)
        locked = sarlock_lock(original, 10, seed=2)
        result = appsat_attack(
            locked,
            Oracle(original),
            dips_per_round=4,
            queries_per_checkpoint=32,
            error_threshold=0.05,
            settle_rounds=2,
            seed=3,
        )
        assert result.status == "settled"
        # Far fewer DIPs than the exact attack's 2^10 - 1.
        assert result.num_dips < 100
        assert result.detail["estimated_error_rate"] <= 0.05
        assert result.detail["checkpoints"]  # evidence recorded

    def test_settled_key_is_approximately_correct(self):
        original = random_netlist(8, 50, seed=83)
        locked = sarlock_lock(original, 8, seed=1)
        result = appsat_attack(
            locked,
            Oracle(original),
            dips_per_round=4,
            queries_per_checkpoint=64,
            error_threshold=0.05,
            seed=5,
        )
        assert result.key is not None
        from repro.bdd.analysis import exact_error_rate

        # Point-function corruption only: at most a few patterns err.
        rate = exact_error_rate(locked, original, result.key)
        assert rate <= 0.05

    def test_timeout_status(self):
        # A zero budget trips the timeout deterministically; any small
        # positive budget is flaky now that the batched checkpoint can
        # settle within milliseconds.
        original = random_netlist(8, 50, seed=84)
        locked = sarlock_lock(original, 8, seed=1)
        result = appsat_attack(
            locked, Oracle(original), dips_per_round=2, time_limit=0.0
        )
        assert result.status == "timeout"
        assert result.key is None

    def test_comparison_with_exact_attack_cost(self):
        """The motivating comparison: AppSAT does fewer DIPs than the
        exact attack on a point-function scheme."""
        original = random_netlist(9, 55, seed=85)
        locked = sarlock_lock(original, 9, seed=4)
        exact = sat_attack(locked, Oracle(original))
        approx = appsat_attack(
            locked,
            Oracle(original),
            dips_per_round=4,
            queries_per_checkpoint=32,
            error_threshold=0.05,
            seed=6,
        )
        assert exact.num_dips == 2**9 - 1
        assert approx.num_dips < exact.num_dips


class TestRoundSizes:
    """A round without DIPs never moves the candidate, and a checkpoint
    without patterns measures nothing: both are rejected up front.

    The time limit only bounds the failure mode: a run that accepted
    ``dips_per_round=0`` would spin on an unchanging candidate until
    it ran out, instead of raising at once.
    """

    def _locked(self):
        original = c17()
        return original, xor_lock(original, 4, seed=1)

    def test_zero_dips_per_round_rejected(self):
        original, locked = self._locked()
        with pytest.raises(ValueError, match="dips_per_round"):
            appsat_attack(
                locked, Oracle(original), dips_per_round=0, time_limit=2
            )

    def test_zero_queries_per_checkpoint_rejected(self):
        original, locked = self._locked()
        with pytest.raises(ValueError, match="queries_per_checkpoint"):
            appsat_attack(
                locked, Oracle(original), queries_per_checkpoint=0,
                time_limit=2,
            )

    def test_rejected_through_the_registry(self):
        original, locked = self._locked()
        with pytest.raises(ValueError, match="dips_per_round"):
            run_attack(
                "appsat", locked, Oracle(original), dips_per_round=0,
                time_limit=2,
            )
