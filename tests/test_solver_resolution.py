"""The ``solver`` resolution contract, through every layer that resolves it.

A ``--solver`` flag (or an explicit ``solver=``) beats ``REPRO_SOLVER``,
which beats the default ``python``; an unknown value fails with the
roster.  The resolved name is hashed into exactly the task kinds whose
result it can change: ``scenario_cell`` and ``multikey_shard_chunk``.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.circuit.random_circuits import random_netlist
from repro.cli import main
from repro.core.sharded import sharded_multikey_attack
from repro.locking.xor_lock import xor_lock
from repro.runner import Runner
from repro.sat import registry as solver_registry
from repro.sat.registry import (
    DEFAULT_SOLVER,
    SOLVER_ENV,
    registered_solvers,
    resolve_solver_name,
    solver_info,
)
from repro.scenarios import ScenarioSpec
from repro.service.envelopes import AttackRequest

#: The task kinds whose hashed params carry the solver.
HASHED_IN = {"scenario_cell", "multikey_shard_chunk"}

#: Every task kind one small request dispatches.
TASK_KINDS = {"scenario_cell", "corruption_cell", "multikey_shard_chunk"}


@pytest.fixture(autouse=True)
def _second_solver(monkeypatch):
    """A second solver backend, so there is a non-default choice even
    where no optional backend is installed."""
    twin = dataclasses.replace(solver_info("python"), name="twin")
    monkeypatch.setitem(solver_registry._REGISTRY, "twin", twin)


def _bench(*flags: str) -> None:
    """The cheapest CLI command that takes ``--solver``."""
    assert main(["bench", "--circuit", "c17", "--no-cache", *flags]) == 0


class TestPrecedence:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        assert DEFAULT_SOLVER == "python"
        assert resolve_solver_name() == resolve_solver_name(None) == "python"
        assert ScenarioSpec(schemes=["xor"]).solver == "python"

    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "twin")
        assert resolve_solver_name(None) == "twin"
        assert ScenarioSpec(schemes=["xor"]).solver == "twin"

    def test_explicit_value_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "twin")
        assert resolve_solver_name("python") == "python"
        assert ScenarioSpec(schemes=["xor"], solver="python").solver == "python"

    def test_flag_beats_env_var_and_is_exported(self, monkeypatch):
        """Worker processes read the env var, so the CLI exports the flag."""
        monkeypatch.setenv(SOLVER_ENV, "python")
        _bench("--solver", "twin")
        assert os.environ[SOLVER_ENV] == "twin"

    def test_no_flag_leaves_the_env_alone(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        _bench()
        assert SOLVER_ENV not in os.environ


class TestUnknownValue:
    def _assert_roster(self, message: str) -> None:
        assert "unknown solver backend 'nope'" in message
        assert all(name in message for name in registered_solvers())

    def test_resolver_raises_with_roster(self, monkeypatch):
        with pytest.raises(ValueError) as error:
            resolve_solver_name("nope")
        self._assert_roster(str(error.value))
        monkeypatch.setenv(SOLVER_ENV, "nope")
        with pytest.raises(ValueError) as error:
            resolve_solver_name(None)
        self._assert_roster(str(error.value))

    def test_spec_and_attack_request_fail_fast(self):
        with pytest.raises(ValueError, match="unknown solver backend 'nope'"):
            ScenarioSpec(schemes=["xor"], solver="nope")
        with pytest.raises(ValueError, match="unknown solver backend 'nope'"):
            AttackRequest(solver="nope")

    def test_cli_flag_exits_with_roster(self):
        with pytest.raises(SystemExit) as exit_info:
            _bench("--solver", "nope")
        self._assert_roster(str(exit_info.value.code))

    def test_cli_env_var_exits_with_roster(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "nope")
        with pytest.raises(SystemExit) as exit_info:
            _bench()
        self._assert_roster(str(exit_info.value.code))


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
    assert {task.kind for task in tasks} == TASK_KINDS
    return tasks


def test_solver_is_hashed_where_it_changes_the_result(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    before = _tasks()
    monkeypatch.setenv(SOLVER_ENV, "twin")
    after = _tasks()
    for old, new in zip(before, after):
        carried = new.kind in HASHED_IN
        if carried:
            assert (old.params["solver"], new.params["solver"]) == (
                "python", "twin"
            )
        else:
            assert "solver" not in new.params
        assert (old.cache_key != new.cache_key) == carried
