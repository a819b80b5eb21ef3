"""Shard frames scope the hash-consed DIP copy gates.

Every shard of a :class:`~repro.core.sharded.ShardEngine` runs in a
solver frame.  The miter encoding's copy-gate table and ``key1 -> key2``
twin map hold solver variables, so rolling the frame back must drop
every entry above the frame mark — otherwise a later shard would reuse
a gate whose clauses are gone.  These tests run shards in several
orders on one engine, and through a shard that raises.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.brute_force import brute_force_keys
from repro.attacks.registry import AttackInfo
from repro.attacks.sat_attack import run_dip_loop
from repro.circuit.random_circuits import random_netlist
from repro.core import sharded
from repro.core.compose import verify_composition
from repro.core.sharded import ShardEngine
from repro.locking.registry import lock_circuit
from repro.oracle.oracle import Oracle


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
