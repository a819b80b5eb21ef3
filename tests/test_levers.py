"""The lever table's contract, checked once for every lever.

Each lever resolves the same way in every layer: an explicit value
beats its environment variable, which beats its default, and an unknown
value fails with the roster.  Hashed levers land in the hashed params
of every task kind they steer; the others never move a cache key.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuit.lanes import numpy_available, resolve_lanes
from repro.circuit.opt import resolve_opt
from repro.circuit.random_circuits import random_netlist
from repro.core.sharded import sharded_multikey_attack
from repro.levers import LEVERS
from repro.locking.xor_lock import xor_lock
from repro.runner import Runner
from repro.runner.backends import resolve_cache_backend_name
from repro.sat import registry as solver_registry
from repro.sat.registry import resolve_solver_name, solver_info
from repro.scenarios import ScenarioSpec

#: Each lever's resolver, as the layer that uses it calls it.
RESOLVERS = {
    "opt": resolve_opt,
    "lanes": resolve_lanes,
    "solver": resolve_solver_name,
    "cache_backend": resolve_cache_backend_name,
}

#: The task kinds whose hashed params carry each hashed lever.
HASHED_IN = {
    "opt": {"scenario_cell", "corruption_cell", "multikey_shard_chunk"},
    "solver": {"scenario_cell", "multikey_shard_chunk"},
}

BY_NAME = pytest.mark.parametrize("lever", LEVERS, ids=lambda lever: lever.name)


@pytest.fixture(autouse=True)
def _second_solver(monkeypatch):
    """A second solver backend, so the solver lever has a non-default
    choice even where no optional backend is installed."""
    twin = dataclasses.replace(solver_info("python"), name="twin")
    monkeypatch.setitem(solver_registry._REGISTRY, "twin", twin)


def _alternatives(lever) -> tuple[str, str]:
    """Two distinct usable choices; the first is not the default."""
    usable = [
        choice
        for choice in lever.roster()
        if choice != "numpy" or numpy_available()
    ]
    alt = next(choice for choice in usable if choice != lever.default)
    other = [choice for choice in usable if choice != alt][-1]
    return alt, other


def test_table_names_every_resolver():
    assert {lever.name for lever in LEVERS} == set(RESOLVERS)
    assert {lever.name for lever in LEVERS if lever.hashed} == set(HASHED_IN)


@BY_NAME
def test_env_var_overrides_default(lever, monkeypatch):
    monkeypatch.delenv(lever.env, raising=False)
    assert lever.current() == lever.default
    alt, _ = _alternatives(lever)
    monkeypatch.setenv(lever.env, alt)
    assert lever.current() == alt
    assert RESOLVERS[lever.name](None) == lever.resolve(alt)


@BY_NAME
def test_explicit_value_beats_env_var(lever, monkeypatch):
    alt, other = _alternatives(lever)
    monkeypatch.setenv(lever.env, alt)
    assert RESOLVERS[lever.name](other) == lever.aliases.get(other, other)


@BY_NAME
def test_unknown_value_raises_with_roster(lever, monkeypatch):
    resolve = RESOLVERS[lever.name]
    with pytest.raises(ValueError, match=f"unknown {lever.noun} 'nope'") as error:
        resolve("nope")
    assert all(choice in str(error.value) for choice in lever.roster())
    monkeypatch.setenv(lever.env, "nope")
    with pytest.raises(ValueError, match=f"unknown {lever.noun} 'nope'"):
        resolve(None)


class _RecordingRunner(Runner):
    """A serial runner that keeps every spec it is handed."""

    def __init__(self, seen: list) -> None:
        super().__init__(jobs=1)
        self.seen = seen

    def run(self, specs):
        self.seen.extend(specs)
        return super().run(specs)


def _tasks() -> list:
    """One small request's hashed tasks of all three kinds."""
    spec = ScenarioSpec(
        schemes=[("xor", {"key_size": 3})],
        circuits=["c17"],
        efforts=[1],
        metrics=["corruption"],
        key_samples=2,
    )
    tasks = spec.expand() + spec.expand_metrics()
    original = random_netlist(4, 12, seed=7)
    locked = xor_lock(original, 2, seed=1)
    sharded_multikey_attack(
        locked, original, effort=1, runner=_RecordingRunner(tasks)
    )
    assert {task.kind for task in tasks} == set().union(*HASHED_IN.values())
    return tasks


@BY_NAME
def test_cache_identity_follows_the_hashed_flag(lever, monkeypatch):
    before = _tasks()
    alt, _ = _alternatives(lever)
    monkeypatch.setenv(lever.env, alt)
    after = _tasks()
    if not lever.hashed:
        assert [t.cache_key for t in after] == [t.cache_key for t in before]
        return
    kinds = HASHED_IN[lever.name]
    for old, new in zip(before, after):
        carried = new.kind in kinds
        if carried:
            assert new.params[lever.name] == lever.resolve(alt)
        assert (old.cache_key != new.cache_key) == carried
