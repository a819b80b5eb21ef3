"""Shard frames scope the hash-consed DIP copy gates.

Every shard of a :class:`~repro.core.sharded.ShardEngine` runs in a
solver frame.  The miter encoding's copy-gate table and ``key1 -> key2``
twin map hold solver variables, so rolling the frame back must drop
every entry above the frame mark — otherwise a later shard would reuse
a gate whose clauses are gone.  These tests run shards in several
orders on one engine, and through a shard that raises.

What a frame costs must not change what it searches: a golden test
pins every shard's solver counters, DIPs and key, in-process and on
the pool, and another gates the chunk workers on re-parsing, compiling
and optimizing nothing.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.brute_force import brute_force_keys
from repro.attacks.registry import AttackInfo
from repro.attacks.sat_attack import run_dip_loop
from repro.bench_circuits.corpus import resolve_circuit
from repro.circuit import bench, compiled, opt
from repro.circuit.random_circuits import random_netlist
from repro.core import multikey, sharded
from repro.core.compose import verify_composition
from repro.core.multikey import multikey_attack
from repro.core.sharded import ShardEngine
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.registry import lock_circuit
from repro.oracle.oracle import Oracle
from repro.runner import Runner
from repro.runner import task as runner_task


def _assert_scoped(engine, mark):
    enc = engine.enc
    assert enc.solver.num_vars == mark
    assert all(var <= mark for var in enc.copy_gates.values())
    assert all(
        abs(lit) <= mark and abs(twin) <= mark
        for lit, twin in enc.copy_twin.items()
    )


def _check_orders(original, locked, splitting, orders):
    """Run ``orders`` of shards on one engine against fresh engines."""
    oracle = Oracle(original)
    engine = ShardEngine(locked, oracle, splitting)
    mark = engine.enc.solver.num_vars
    fresh = {}
    for index in range(engine.num_shards):
        task = ShardEngine(locked, Oracle(original), splitting).run_shard(index)
        assert task.status == "ok"
        fresh[index] = task.key_int
    for order in orders:
        keys = {}
        for index in order:
            task = engine.run_shard(index, max_dips=1 << len(locked.key_inputs))
            _assert_scoped(engine, mark)
            assert task.status == "ok"
            keys[index] = task.key_int
        # A warm solver may pick another member of the shard's key set.
        for index, key in keys.items():
            good = brute_force_keys(locked, oracle, pin=engine.assignment(index))
            assert key in good and fresh[index] in good
        assert verify_composition(
            locked, splitting, [keys[i] for i in range(engine.num_shards)], original
        ).equivalent


class TestShardFrames:
    @pytest.mark.parametrize("scheme", ["sarlock", "xor", "antisat"])
    def test_forward_then_backward(self, scheme):
        original = random_netlist(7, 45, seed=29)
        locked = lock_circuit(scheme, original, key_size=4, seed=3)
        _check_orders(
            original, locked, original.inputs[:2], [range(4), range(3, -1, -1)]
        )

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scheme=st.sampled_from(["sarlock", "xor", "antisat"]),
        order=st.permutations(range(4)),
    )
    def test_random_netlists_and_orders(self, seed, scheme, order):
        original = random_netlist(6, 30, seed=seed)
        locked = lock_circuit(scheme, original, key_size=4, seed=seed)
        _check_orders(original, locked, original.inputs[:2], [order])

    def test_raising_shard_rolls_back(self, monkeypatch):
        original = random_netlist(7, 45, seed=29)
        locked = lock_circuit("sarlock", original, key_size=4, seed=3)
        splitting = original.inputs[:2]
        engine = ShardEngine(locked, Oracle(original), splitting)
        mark = engine.enc.solver.num_vars

        def crash(enc, oracle, *, pin, assume, guard, time_limit, max_dips, seed):
            run_dip_loop(enc, oracle, pin=pin, assume=assume, guard=guard, max_dips=3)
            assert enc.copy_gates  # the shard left gates to roll back
            raise RuntimeError("shard failed")

        with monkeypatch.context() as patch:
            patch.setattr(
                sharded, "attack_info", lambda name: AttackInfo(name, crash, crash)
            )
            with pytest.raises(RuntimeError, match="shard failed"):
                engine.run_shard(1)
        _assert_scoped(engine, mark)
        task = engine.run_shard(1)
        fresh = ShardEngine(locked, Oracle(original), splitting).run_shard(1)
        assert task.status == fresh.status == "ok"
        assert task.num_dips == fresh.num_dips
        assert task.key_int in brute_force_keys(
            locked, Oracle(original), pin=task.assignment
        )


def _lut_c432():
    original = resolve_circuit("c432", 0.12)
    return lut_lock(original, LutModuleSpec.tiny(), seed=2), original


def _sharded_unlock(locked, original, runner):
    return multikey_attack(
        locked, original, 2, engine="sharded", solver="python", opt="full",
        runner=runner,
    )


#: Per shard: (index, DIPs, key, propagations, conflicts, decisions).
#: The pool's shards 1-3 run on two warm-started chunk workers, so they
#: search differently from the in-process engine's, just as exactly.
_GOLDEN = {
    "in-process": [
        (0, 5, 788484, 3449, 99, 533),
        (1, 7, 3962900, 3224, 86, 533),
        (2, 8, 3897116, 4429, 104, 581),
        (3, 6, 12285852, 3182, 82, 441),
    ],
    "pool": [
        (0, 5, 788484, 3449, 99, 533),
        (1, 7, 3174416, 4041, 109, 585),
        (2, 6, 4028434, 3574, 96, 481),
        (3, 8, 14712960, 4341, 113, 610),
    ],
}


class TestGoldenTrajectory:
    """A seeded effort-2 unlock of a LUT lock replays shard for shard."""

    @pytest.mark.parametrize("where", sorted(_GOLDEN))
    def test_every_shard_replays_its_counters(self, where):
        locked, original = _lut_c432()
        runner = Runner(jobs=2) if where == "pool" else None
        result = _sharded_unlock(locked, original, runner)
        got = [
            (
                task.index, task.num_dips, task.key_int,
                task.solver_stats["propagations"],
                task.solver_stats["conflicts"],
                task.solver_stats["decisions"],
            )
            for task in result.subtasks
        ]
        assert got == _GOLDEN[where]


class TestChunkWorkerReuse:
    """Chunk workers build on the parent's compiled, optimized circuits."""

    @pytest.mark.parametrize("pickled", [False, True], ids=["shared", "pickled"])
    def test_chunks_parse_compile_and_optimize_nothing(
        self, monkeypatch, pickled
    ):
        locked, original = _lut_c432()
        calls = {"parse_bench": 0, "optimize_compiled": 0, "compile": 0}
        in_chunk, chunks = [], []

        def count(name, real):
            def counted(*args, **kwargs):
                calls[name] += bool(in_chunk)
                return real(*args, **kwargs)

            return counted

        counted_parse = count("parse_bench", bench.parse_bench)
        for module in (bench, multikey):
            monkeypatch.setattr(module, "parse_bench", counted_parse)
        monkeypatch.setattr(
            opt, "optimize_compiled",
            count("optimize_compiled", opt.optimize_compiled),
        )
        monkeypatch.setattr(
            compiled.CompiledCircuit, "__init__",
            count("compile", compiled.CompiledCircuit.__init__),
        )

        def chunk(params):
            if pickled:  # what a pool worker receives
                params = pickle.loads(pickle.dumps(params))
            in_chunk.append(True)
            chunks.append(params["shard_indices"])
            try:
                return sharded._shard_chunk_task(params)
            finally:
                in_chunk.pop()

        monkeypatch.setitem(runner_task._REGISTRY, "multikey_shard_chunk", chunk)
        result = _sharded_unlock(locked, original, Runner(jobs=1))
        assert chunks == [[1, 2, 3]]  # the pilot ran shard 0 in the parent
        assert calls == {"parse_bench": 0, "optimize_compiled": 0, "compile": 0}
        assert verify_composition(
            locked, result.splitting_inputs, result.keys, original
        ).equivalent
