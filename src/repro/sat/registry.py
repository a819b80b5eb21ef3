"""The solver backend registry: pluggable SAT engines behind one seam.

Backends self-register at import time with :func:`register_solver`
into one :class:`~repro.registry.Registry`; callers resolve by name
through :func:`solver_info` / :func:`create_solver`.

A backend is a zero-argument factory returning an object with the
:class:`repro.sat.solver.Solver` surface — ``new_var``,
``add_clause(s)``, ``solve(assumptions=..., conflict_budget=...)``,
``model_value``, ``stats.as_dict()`` — plus whatever subset of the
warm-start contract its :class:`SolverCapabilities` declare:

* ``assumptions`` — ``solve(assumptions=...)`` pins literals for one
  call without poisoning later calls.
* ``checkpoint`` — ``checkpoint()``/``rollback(mark)`` frames; the
  sharded multi-key engine cannot run without them.
* ``learnt_export`` — ``export_learnts``/``import_learnts`` move
  learned clauses (including root-level units) between instances that
  share an encoding prefix.
* ``conflict_budget`` — ``solve(conflict_budget=n)`` raises
  :class:`~repro.sat.solver.BudgetExhausted` past ``n`` conflicts and
  counts the abort in ``stats.as_dict()["budget_aborts"]``.

The conformance suite (``tests/sat/test_backends.py``) runs every
registered backend against the contract, skipping exactly the parts a
backend declares off — so a new backend either passes or says why not.

The default backend is ``"python"`` (always available); the
``solver`` lever (:mod:`repro.levers`, env ``REPRO_SOLVER``) changes
the default without threading ``solver=`` through every call site.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter

from repro.levers import SOLVER
from repro.registry import Registry
from repro.sat.solver import Solver


@dataclass(frozen=True)
class SolverCapabilities:
    """What a backend supports beyond plain ``add_clause``/``solve``."""

    assumptions: bool = False
    checkpoint: bool = False
    learnt_export: bool = False
    conflict_budget: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "assumptions": self.assumptions,
            "checkpoint": self.checkpoint,
            "learnt_export": self.learnt_export,
            "conflict_budget": self.conflict_budget,
        }


@dataclass(frozen=True)
class SolverBackendInfo:
    """Registry record for one solver backend."""

    name: str
    factory: Callable[[], object]
    capabilities: SolverCapabilities
    description: str = ""

    @property
    def supports_sharding(self) -> bool:
        """Whether the sharded engine's fast path can run on this backend.

        Sharding needs checkpoint/rollback frames (each sub-space is a
        frame) and per-shard assumption pinning.  ``learnt_export`` is
        *not* required — without it the pilot shard simply cannot prime
        the workers warm.
        """
        return self.capabilities.checkpoint and self.capabilities.assumptions


_REGISTRY: Registry[SolverBackendInfo] = Registry(
    "solver backend", identity=attrgetter("factory")
)
solver_info = _REGISTRY.get
registered_solvers = _REGISTRY.names


def register_solver(
    name: str,
    *,
    capabilities: SolverCapabilities,
    description: str = "",
):
    """Class/function decorator registering a solver backend factory."""

    def decorate(factory):
        _REGISTRY.register(
            name, SolverBackendInfo(name, factory, capabilities, description)
        )
        return factory

    return decorate


def resolve_solver_name(name: str | None) -> str:
    """``name`` if given, else the process default — always validated."""
    return SOLVER.resolve(name)


def create_solver(name: str | None = None):
    """Instantiate a backend by name (``None`` -> process default)."""
    return _REGISTRY[SOLVER.resolve(name)].factory()


@register_solver(
    "python",
    capabilities=SolverCapabilities(
        assumptions=True,
        checkpoint=True,
        learnt_export=True,
        conflict_budget=True,
    ),
    description=(
        "pure-python CDCL (always available; full warm-start contract)"
    ),
)
def _python_backend() -> Solver:
    return Solver()


# The PySAT adapter registers itself when the optional python-sat
# package is importable; without it the import is a clean no-op and
# the roster simply lacks the "pysat" entry.
from repro.sat import pysat_backend as _pysat_backend  # noqa: E402,F401
