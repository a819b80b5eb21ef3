"""Algorithm 1 tests: the multi-key attack end to end."""

from dataclasses import asdict

import pytest

from repro.attacks.brute_force import brute_force_keys
from repro.circuit.random_circuits import random_netlist
from repro.core.compose import verify_composition
from repro.core.multikey import engine_for, multikey_attack
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.runner import ResultCache, Runner


@pytest.fixture
def setup():
    original = random_netlist(7, 45, seed=29)
    locked = sarlock_lock(original, 4, seed=3)
    return original, locked


class TestAlgorithm1:
    def test_effort_zero_is_baseline(self, setup):
        original, locked = setup
        result = multikey_attack(locked, original, effort=0)
        assert len(result.subtasks) == 1
        assert result.splitting_inputs == []
        assert result.subtasks[0].key_int == locked.correct_key_int

    @pytest.mark.parametrize("effort", [1, 2, 3])
    def test_task_count_is_2_to_n(self, setup, effort):
        original, locked = setup
        result = multikey_attack(locked, original, effort=effort)
        assert len(result.subtasks) == 1 << effort
        assert result.status == "ok"

    def test_each_key_unlocks_its_subspace(self, setup):
        original, locked = setup
        result = multikey_attack(locked, original, effort=2)
        for task in result.subtasks:
            good = brute_force_keys(
                locked, Oracle(original), pin=task.assignment
            )
            assert task.key_int in good

    def test_dips_halve_with_effort(self, setup):
        original, locked = setup
        dips = []
        for effort in range(3):
            result = multikey_attack(locked, original, effort=effort)
            dips.append(max(result.dips_per_task))
        assert dips[0] > dips[1] > dips[2]

    def test_composition_equivalent(self, setup):
        original, locked = setup
        result = multikey_attack(locked, original, effort=2)
        assert verify_composition(
            locked, result.splitting_inputs, result.keys, original
        ).equivalent

    def test_parallel_matches_sequential(self, setup):
        original, locked = setup
        seq = multikey_attack(locked, original, effort=2, parallel=False)
        par = multikey_attack(locked, original, effort=2, parallel=True,
                              processes=2)
        assert seq.key_ints == par.key_ints
        assert seq.dips_per_task == par.dips_per_task
        assert par.parallel is True
        assert seq.parallel is False

    def test_parallel_and_serial_subtasks_identical(self, setup):
        original, locked = setup

        def untimed(result):
            return [
                {
                    **asdict(task),
                    "elapsed_seconds": None,
                    "synthesis_seconds": None,
                }
                for task in result.subtasks
            ]

        seq = multikey_attack(locked, original, effort=2, parallel=False)
        par = multikey_attack(
            locked, original, effort=2, parallel=True, processes=2
        )
        assert untimed(seq) == untimed(par)

    def test_cached_runner_replays_the_same_keys(self, setup, tmp_path):
        original, locked = setup
        cache = ResultCache(tmp_path)
        first = multikey_attack(
            locked, original, effort=2, runner=Runner(cache=cache)
        )
        assert (cache.hits, cache.misses) == (0, 4)
        again = multikey_attack(
            locked, original, effort=2, runner=Runner(cache=cache)
        )
        assert (cache.hits, cache.misses) == (4, 4)
        assert again.key_ints == first.key_ints
        assert again.dips_per_task == first.dips_per_task

    def test_lut_lock_multikey(self):
        original = random_netlist(8, 60, seed=31)
        locked = lut_lock(original, LutModuleSpec.tiny(), seed=2)
        result = multikey_attack(locked, original, effort=2)
        assert result.status == "ok"
        assert verify_composition(
            locked, result.splitting_inputs, result.keys, original
        ).equivalent

    def test_explicit_splitting_inputs(self, setup):
        original, locked = setup
        chosen = [original.inputs[2], original.inputs[5]]
        result = multikey_attack(
            locked, original, effort=2, splitting_inputs=chosen
        )
        assert result.splitting_inputs == chosen
        for index, task in enumerate(result.subtasks):
            assert task.assignment == {
                chosen[0]: bool(index & 1),
                chosen[1]: bool(index & 2),
            }

    def test_splitting_inputs_length_checked(self, setup):
        original, locked = setup
        with pytest.raises(ValueError):
            multikey_attack(
                locked, original, effort=2, splitting_inputs=["pi0"]
            )

    def test_no_synthesis_same_keys(self, setup):
        original, locked = setup
        with_synth = multikey_attack(locked, original, effort=1)
        without = multikey_attack(
            locked, original, effort=1, run_synthesis=False
        )
        # The search is deterministic given the same netlist structure?
        # Not guaranteed — but both key sets must unlock their subspaces.
        for task in without.subtasks:
            good = brute_force_keys(
                locked, Oracle(original), pin=task.assignment
            )
            assert task.key_int in good
        assert with_synth.status == without.status == "ok"

    def test_metrics_populated(self, setup):
        original, locked = setup
        result = multikey_attack(locked, original, effort=2)
        assert result.max_subtask_seconds >= result.mean_subtask_seconds
        assert result.mean_subtask_seconds >= result.min_subtask_seconds
        assert result.total_dips == sum(result.dips_per_task)
        assert result.wall_seconds > 0
        for task in result.subtasks:
            assert task.gates_after <= task.gates_before
            assert task.oracle_queries == task.num_dips

    @pytest.mark.parametrize("engine", ["reference", "sharded"])
    def test_unoptimized_takes_the_same_dips(self, setup, engine, unoptimized):
        """Optimization shrinks what the solver sees, never the attack:
        on SARLock every sub-space takes the same DIPs without it, and
        every key still unlocks its sub-space."""
        original, locked = setup
        optimized = multikey_attack(locked, original, effort=2, engine=engine)
        with unoptimized():
            plain = multikey_attack(locked, original, effort=2, engine=engine)
        assert plain.dips_per_task == optimized.dips_per_task
        for task in plain.subtasks:
            assert task.key_int in brute_force_keys(
                locked, Oracle(original), pin=task.assignment
            )

    def test_partial_status_on_budget(self, setup):
        original, locked = setup
        result = multikey_attack(
            locked, original, effort=1, max_dips_per_task=1
        )
        assert result.status == "partial"
        assert result.keys == [] or len(result.keys) < 2


class TestEngineChoice:
    @pytest.mark.parametrize("surface", ["multikey_attack", "spec", "request"])
    def test_one_unknown_engine_error(self, setup, surface):
        from repro.scenarios.spec import ScenarioSpec
        from repro.service.envelopes import AttackRequest

        original, locked = setup
        build = {
            "multikey_attack": lambda: multikey_attack(
                locked, original, effort=1, engine="warp"
            ),
            "spec": lambda: ScenarioSpec(schemes=["sarlock"], engines=["warp"]),
            "request": lambda: AttackRequest(engine="warp"),
        }[surface]
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == (
            "unknown engine 'warp' (known: sharded, reference)"
        )

    @pytest.mark.parametrize(
        "attack, solver, runs",
        [
            ("sat", "python", "sharded"),
            ("appsat", "python", "reference"),
            ("brute_force", "python", "reference"),
        ],
    )
    def test_engine_for(self, attack, solver, runs):
        assert engine_for("sharded", attack, solver) == runs
        assert engine_for("reference", attack, solver) == "reference"

    def test_sharded_request_without_shard_fn_runs_reference(self, setup):
        original, locked = setup
        result = multikey_attack(
            locked, original, effort=1, attack="appsat", engine="sharded"
        )
        assert result.engine == "reference"


#: ``TaskSpec.cache_key`` of every spec the four golden runs dispatch
#: on the seeded fixture, in dispatch order.  A change to a hashed
#: param (name, value or shape) of ``multikey_subtask`` or
#: ``multikey_shard_chunk`` moves these digests and orphans every
#: cached sub-task, so they are pinned here.
GOLDEN_CACHE_KEYS = {
    "reference": [
        ("multikey_subtask", "b797337def11eb591b70a5efba5c95faaef69831f0541f3301c3b224ead7f61f"),
        ("multikey_subtask", "c69b7df715e1cd856285931faa5338ae68a600958a12b7a93fea6bc8abe24498"),
        ("multikey_subtask", "d436c51f51aed907e9bdcb331b666a7996c231fc52d8bf8328ff5d5ef4084401"),
        ("multikey_subtask", "e9e7e41c6f5b554883ade52df22db80e9360b306a185358f0ac5d850e6071053"),
    ],
    "reference_no_synthesis": [
        ("multikey_subtask", "17c375942560dcf32e7257b831274888ba1cd195eba638f094ac1fd1ea8ae2c5"),
        ("multikey_subtask", "0d246d6087d69d23fe1c3285ca8db9590bf44ddc71d2de562a0a60e9ebb95626"),
        ("multikey_subtask", "353748f29304ebec47ad0ade3c2684df745884e663b94a0cf1e153294b1d7ac0"),
        ("multikey_subtask", "71c8b3789fa4ad0f634bdb94315eda2be984e3fcc0a3fd2ddf2b39a2d8ab2304"),
    ],
    "sharded_parallel": [
        ("multikey_shard_chunk", "4ddf24d4b56c5cf58a8a0815775910391b41a9e8678076a251437c74c0e5e281"),
        ("multikey_shard_chunk", "3c206e2b7081231a168740b5b8aaad07cf3660918d58a241edf0701efec9c971"),
    ],
    "sharded_runner": [
        ("multikey_shard_chunk", "07aaccba34c3833f5d8bc6790609f711166d7db5a08b5f129ac89c3378bc2911"),
        ("multikey_shard_chunk", "3ab667028363cb15ab914dffcd02128dad6c542bd825cb8c1a0f9307675e7f81"),
    ],
}

GOLDEN_RUNS = {
    "reference": dict(effort=2),
    "reference_no_synthesis": dict(
        effort=2, run_synthesis=False, max_dips_per_task=3
    ),
    "sharded_parallel": dict(
        effort=2, engine="sharded", parallel=True, processes=2
    ),
    "sharded_runner": dict(effort=3, engine="sharded"),
}


class TestGoldenCacheKeys:
    @pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
    def test_dispatched_specs_hash_as_pinned(self, setup, run, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        monkeypatch.delenv("REPRO_OPT", raising=False)
        dispatched = []
        run_iter = Runner.run_iter

        def recording(self, specs):
            dispatched.extend(specs)
            return run_iter(self, specs)

        monkeypatch.setattr(Runner, "run_iter", recording)
        original, locked = setup
        kwargs = dict(GOLDEN_RUNS[run])
        if run == "sharded_runner":
            kwargs["runner"] = Runner(jobs=2)
        multikey_attack(locked, original, **kwargs)
        assert [
            (spec.kind, spec.cache_key) for spec in dispatched
        ] == GOLDEN_CACHE_KEYS[run]
