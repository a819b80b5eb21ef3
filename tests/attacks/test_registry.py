"""Registry behavior: attacks, schemes, and the unified outcome."""

import pytest

from repro.attacks.brute_force import brute_force_attack, brute_force_keys
from repro.attacks.appsat import appsat_attack
from repro.attacks.registry import (
    SUCCESS_STATUSES,
    AttackOutcome,
    attack_info,
    register_attack,
    registered_attacks,
    run_attack,
)
from repro.attacks.sat_attack import (
    build_miter_encoding,
    run_dip_loop,
    sat_attack,
)
from repro.circuit.random_circuits import random_netlist
from repro.locking import (
    LockingError,
    lock_circuit,
    register_scheme,
    registered_schemes,
    scheme_info,
)
from repro.oracle.oracle import Oracle


@pytest.fixture
def setup():
    original = random_netlist(6, 30, seed=11)
    locked = lock_circuit("sarlock", original, key_size=3, seed=2)
    return original, locked


class TestAttackRegistry:
    def test_builtin_roster(self):
        names = registered_attacks()
        for name in ("sat", "appsat", "brute_force"):
            assert name in names

    def test_only_sat_is_shard_capable(self):
        assert attack_info("sat").supports_shared_encoding
        assert not attack_info("appsat").supports_shared_encoding
        assert not attack_info("brute_force").supports_shared_encoding

    def test_duplicate_name_rejected(self):
        def imposter(locked, oracle, **kwargs):  # pragma: no cover
            raise AssertionError("never called")

        with pytest.raises(ValueError, match="already registered"):
            register_attack("sat")(imposter)

    def test_reregistering_same_function_is_idempotent(self):
        info = attack_info("sat")
        register_attack("sat", shard_fn=info.shard_fn)(info.fn)
        assert attack_info("sat").fn is info.fn

    def test_unknown_name_lists_roster(self, setup):
        original, locked = setup
        with pytest.raises(ValueError) as err:
            run_attack("nope", locked, Oracle(original))
        message = str(err.value)
        assert "nope" in message
        for name in ("sat", "appsat", "brute_force"):
            assert name in message

    def test_sat_outcome_surface(self, setup):
        original, locked = setup
        outcome = run_attack("sat", locked, Oracle(original))
        assert outcome.attack == "sat"
        assert outcome.succeeded
        assert outcome.status in SUCCESS_STATUSES
        assert outcome.key_int in brute_force_keys(locked, Oracle(original))
        assert outcome.num_dips > 0
        assert outcome.oracle_queries == outcome.num_dips
        assert outcome.solver_stats.get("decisions", 0) >= 0
        assert outcome.key_order == list(locked.key_inputs)

    def test_brute_force_outcome_enumerates(self, setup):
        original, locked = setup
        outcome = run_attack("brute_force", locked, Oracle(original))
        assert outcome.attack == "brute_force"
        assert outcome.succeeded
        assert outcome.all_keys == brute_force_keys(locked, Oracle(original))
        assert outcome.key_int == outcome.all_keys[0]
        assert outcome.num_dips == 0

    def test_appsat_outcome_and_pin(self, setup):
        original, locked = setup
        pin = {original.inputs[0]: True}
        outcome = run_attack(
            "appsat",
            locked,
            Oracle(original),
            pin=pin,
            dips_per_round=32,
            error_threshold=0.0,
            settle_rounds=99,
        )
        assert outcome.attack == "appsat"
        assert outcome.succeeded
        assert outcome.pinned == pin
        assert outcome.status in ("ok", "settled")
        good = brute_force_keys(locked, Oracle(original), pin=pin)
        assert outcome.key_int in good

    def test_appsat_oracle_queries_is_a_true_delta(self, setup):
        """The outcome reports queries *issued* — the shared-oracle
        counter delta, like every other attack — and AppSAT issues
        exactly one query per DIP plus its checkpoint patterns."""
        original, locked = setup
        oracle = Oracle(original)
        before = oracle.query_count
        outcome = run_attack(
            "appsat",
            locked,
            oracle,
            dips_per_round=4,
            queries_per_checkpoint=16,
            error_threshold=0.5,
        )
        assert outcome.oracle_queries == oracle.query_count - before
        assert outcome.oracle_queries == (
            outcome.num_dips + outcome.detail["random_queries"]
        )

    def test_appsat_reports_its_solver_work(self):
        """AppSAT's outcome carries the live solver's counter deltas
        over all its rounds, with the same counters as the SAT attack."""
        original = random_netlist(8, 40, seed=5)
        locked = lock_circuit("sarlock", original, key_size=6, seed=1)
        outcome = run_attack("appsat", locked, Oracle(original))
        stats = outcome.solver_stats
        assert stats["propagations"] > 0 and stats["conflicts"] > 0
        # One DIP-search call per DIP, plus the extraction calls.
        assert stats["solve_calls"] > outcome.num_dips
        sat = run_attack("sat", locked, Oracle(original))
        assert set(stats) == set(sat.solver_stats)


class TestOutcomeContract:
    """Every attack, called directly or through the registry, returns
    the one result type, named after itself, with a consistent key."""

    @pytest.mark.parametrize("name", registered_attacks())
    def test_registered_function_and_run_attack(self, setup, name):
        original, locked = setup
        pin = {original.inputs[0]: True}
        good = brute_force_keys(locked, Oracle(original), pin=pin)
        direct = attack_info(name).fn(
            locked, Oracle(original), pin=pin, time_limit=None,
            max_dips=None, seed=0, solver=None,
        )
        via_registry = run_attack(name, locked, Oracle(original), pin=pin)
        for outcome in (direct, via_registry):
            assert isinstance(outcome, AttackOutcome)
            assert outcome.attack == name
            assert outcome.succeeded
            assert outcome.pinned == pin
            assert outcome.key_order == list(locked.key_inputs)
            assert outcome.key == locked.key_assignment(outcome.key_int)
            assert outcome.key_int in good

    def test_sat_attack_and_dip_loop_return_outcomes(self, setup):
        original, locked = setup
        good = brute_force_keys(locked, Oracle(original))
        single = sat_attack(locked, Oracle(original))
        loop = run_dip_loop(build_miter_encoding(locked), Oracle(original))
        shard = attack_info("sat").shard_fn(
            build_miter_encoding(locked), Oracle(original), seed=3
        )
        for outcome in (single, loop, shard):
            assert isinstance(outcome, AttackOutcome)
            assert outcome.attack == "sat"
            assert outcome.succeeded
            assert outcome.key_int in good
        # Only the standalone attack knows its encoding's size, and the
        # registry's shard function turns the per-DIP log off.
        assert single.encode_stats["clauses"] > 0
        assert loop.encode_stats == shard.encode_stats == {}
        assert len(single.iterations) == single.num_dips
        assert len(loop.iterations) == loop.num_dips
        assert shard.iterations == []


class TestSchemeRegistry:
    def test_builtin_roster(self):
        names = registered_schemes()
        for name in ("xor", "sarlock", "antisat", "lut", "entangled"):
            assert name in names

    def test_duplicate_name_rejected(self):
        def imposter(netlist, **kwargs):  # pragma: no cover
            raise AssertionError("never called")

        with pytest.raises(ValueError, match="already registered"):
            register_scheme("sarlock")(imposter)

    def test_unknown_name_lists_roster(self):
        original = random_netlist(5, 20, seed=1)
        with pytest.raises(ValueError) as err:
            lock_circuit("nope", original)
        message = str(err.value)
        assert "nope" in message
        for name in ("sarlock", "xor", "lut", "antisat", "entangled"):
            assert name in message

    def test_descriptions_populated(self):
        for name in registered_schemes():
            assert scheme_info(name).description

    def test_antisat_key_size_mapping(self):
        original = random_netlist(6, 30, seed=3)
        locked = lock_circuit("antisat", original, key_size=4, seed=0)
        assert locked.scheme == "antisat"
        assert locked.key_size == 4
        with pytest.raises(LockingError, match="even"):
            lock_circuit("antisat", original, key_size=3)

    def test_lut_spec_by_name_and_dict(self):
        original = random_netlist(8, 60, seed=31)
        by_name = lock_circuit("lut", original, spec="tiny", seed=2)
        by_dict = lock_circuit(
            "lut",
            original,
            spec={
                "stage1_width": 3,
                "num_stage1": 2,
                "stage2_width": 3,
                "shared_padding": True,
            },
            seed=2,
        )
        assert by_name.key_size == by_dict.key_size == 24
        assert by_name.correct_key == by_dict.correct_key


class TestBruteForceResult:
    def test_dataclass_surface(self, setup):
        original, locked = setup
        pin = {original.inputs[1]: False}
        result = brute_force_attack(locked, Oracle(original), pin=pin)
        assert result.attack == "brute_force"
        assert result.status == "ok"
        assert result.all_keys == brute_force_keys(
            locked, Oracle(original), pin=pin
        )
        assert result.key_int == result.all_keys[0]
        assert result.key == locked.key_assignment(result.all_keys[0])
        assert result.elapsed_seconds > 0
        # One counted query per input pattern consistent with the pin.
        assert result.oracle_queries == 1 << (len(original.inputs) - 1)
        assert result.key_order == list(locked.key_inputs)
        assert result.pinned == pin

    def test_compat_wrapper_returns_bare_list(self, setup):
        original, locked = setup
        keys = brute_force_keys(locked, Oracle(original))
        assert isinstance(keys, list)
        assert locked.correct_key_int in keys


class TestAppSatBudget:
    def test_max_dips_cap_reports_dip_limit(self, setup):
        original, locked = setup
        result = appsat_attack(
            locked,
            Oracle(original),
            dips_per_round=1,
            queries_per_checkpoint=4,
            error_threshold=-1.0,  # never settle
            settle_rounds=2,
            max_dips=2,
        )
        assert result.status == "dip_limit"
        assert result.num_dips <= 2

    def test_default_behavior_unchanged_without_budget(self, setup):
        original, locked = setup
        capped = appsat_attack(locked, Oracle(original), dips_per_round=32)
        assert capped.status in ("ok", "settled")
