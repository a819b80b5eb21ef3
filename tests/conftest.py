"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import contextlib
import os

import pytest
from hypothesis import HealthCheck, settings

from repro.circuit.compiled import CompiledCircuit
from repro.circuit.opt import _identity

# One moderate profile for everything: property tests here run whole
# SAT solves / circuit sweeps per example, so keep example counts sane.
settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # Circuit fixtures are deterministic and never mutated by tests,
        # so sharing them across generated examples is safe.
        HealthCheck.function_scoped_fixture,
    ],
)
# ``--hypothesis-profile=deep`` (CI's deep parity step) keeps the
# settings above and raises the example count tenfold.
settings.register_profile(
    "deep", parent=settings.get_profile("repro"), max_examples=300
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep runner caching hermetic: no test reads or writes the user's
    real ``~/.cache/repro-lock`` (CLI subcommands cache by default)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _restored_solver_env(monkeypatch):
    """Undo ``REPRO_SOLVER`` changes a test makes, including the export
    of an in-process ``repro.cli.main([..., "--solver", ...])`` call.
    A value set by the caller (e.g. ``REPRO_SOLVER=pysat``) stays
    visible to tests."""
    monkeypatch.setenv("REPRO_SOLVER", os.environ.get("REPRO_SOLVER", ""))
    if not os.environ["REPRO_SOLVER"]:
        monkeypatch.delenv("REPRO_SOLVER")


@pytest.fixture
def unoptimized(monkeypatch):
    """The unoptimized reference: ``with unoptimized(): ...`` runs its
    body with :meth:`CompiledCircuit.optimized` returning every circuit
    as it is, so the oracle, the attack miter, shard engines and the
    metrics sweep all see the circuit the optimizer would have shrunk.
    In-process only: runner worker processes optimize as usual."""

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(
                CompiledCircuit, "optimized", lambda self: _identity(self, (), {})
            )
            yield

    return patched


@pytest.fixture
def small_circuit():
    """A deterministic 6-input random netlist used across suites."""
    from repro.circuit.random_circuits import random_netlist

    return random_netlist(6, 40, seed=42)


@pytest.fixture
def tiny_alu():
    """A 3-bit ALU: structured, multi-output, fast to simulate."""
    from repro.bench_circuits.generators import simple_alu

    return simple_alu(3, name="tiny_alu")
