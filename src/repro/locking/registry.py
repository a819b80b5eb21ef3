"""The locking-scheme registry: declarative access to every scheme.

Each scheme is registered under a short name with a uniform calling
convention — ``fn(netlist, **params) -> LockedCircuit`` where every
``param`` is JSON-serializable — so schemes can be named in scenario
grids (:mod:`repro.scenarios`), runner task params, and CLI arguments
without importing scheme modules by hand.

All registered schemes accept ``seed``; the width parameter is
``key_size`` everywhere it makes sense (``antisat`` maps it onto its
``ka‖kb`` halves, ``lut`` takes a ``spec`` preset name or field dict
instead, since its key width is the concatenated truth tables).

Adding a scheme::

    @register_scheme("my_scheme", description="one-line summary")
    def _my_scheme(netlist, key_size=4, seed=0):
        ...
        return LockedCircuit(...)
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter

from repro.circuit.compiled import CompiledCircuit
from repro.circuit.netlist import Netlist
from repro.locking.antisat import antisat_lock
from repro.locking.base import LockedCircuit, LockingError
from repro.locking.defense import entangled_sarlock
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock
from repro.registry import Registry

#: Locked carriers kept by :func:`lock_carrier`'s per-process memo.
_MEMO_SIZE = 4


@dataclass(frozen=True)
class SchemeInfo:
    """One registry entry: name, factory, human summary."""

    name: str
    fn: Callable[..., LockedCircuit]
    description: str = ""


_REGISTRY: Registry[SchemeInfo] = Registry(
    "locking scheme", identity=attrgetter("fn")
)
scheme_info = _REGISTRY.get
registered_schemes = _REGISTRY.names


def register_scheme(
    name: str, *, description: str = ""
) -> Callable[[Callable[..., LockedCircuit]], Callable[..., LockedCircuit]]:
    """Decorator registering ``fn`` as the locking scheme ``name``."""

    def decorate(fn: Callable[..., LockedCircuit]) -> Callable[..., LockedCircuit]:
        _REGISTRY.register(name, SchemeInfo(name, fn, description))
        return fn

    return decorate


def lock_circuit(name: str, netlist: Netlist, **params) -> LockedCircuit:
    """Lock ``netlist`` with the registered scheme ``name``."""
    return scheme_info(name).fn(netlist, **params)


def lock_carrier(cell: Mapping) -> tuple[Netlist, LockedCircuit]:
    """Resolve a cell's carrier circuit and lock it: ``(original, locked)``.

    ``cell`` carries ``scheme``, ``scheme_params``, ``circuit``,
    ``scale`` and ``seed`` (a grid or metric cell's task params).  The
    seed feeds the scheme unless ``scheme_params`` pins one.

    This is the one seam behind ``scenario_cell`` (which attack jobs
    run too) and ``corruption_cell``, so a cell task and its metric
    task lock once:
    a bounded per-process LRU keyed by scheme, params (seed included),
    circuit and scale keeps each locked carrier with its compiled
    form.  Every call returns a fresh :class:`LockedCircuit` whose
    netlist is a copy adopting that shared compiled form (see
    :func:`repro.bench_circuits.corpus.resolve_circuit`, which memoizes
    the original the same way).
    """
    from repro.bench_circuits.corpus import resolve_circuit

    original = resolve_circuit(cell["circuit"], cell["scale"])
    params = {"seed": cell["seed"], **(cell.get("scheme_params") or {})}
    locked, compiled = _locked(
        cell["scheme"],
        json.dumps(params, sort_keys=True),
        cell["circuit"],
        cell["scale"],
    )
    netlist = locked.netlist.copy()
    netlist.adopt_compiled(compiled)
    return original, replace(
        locked,
        netlist=netlist,
        key_inputs=list(locked.key_inputs),
        original_inputs=list(locked.original_inputs),
        meta=copy.deepcopy(locked.meta),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _locked(
    scheme: str, params: str, circuit: str, scale: float
) -> tuple[LockedCircuit, CompiledCircuit]:
    """The memoized locked carrier (never handed out; see
    :func:`lock_carrier`).  ``params`` is the scheme's keyword
    arguments as sorted JSON."""
    from repro.bench_circuits.corpus import resolve_circuit

    locked = lock_circuit(
        scheme, resolve_circuit(circuit, scale), **json.loads(params)
    )
    return locked, locked.netlist.compile()


# ----------------------------------------------------------------------
# Built-in schemes
# ----------------------------------------------------------------------


@register_scheme(
    "xor", description="random XOR/XNOR key gates (EPIC-style baseline)"
)
def _xor(netlist: Netlist, key_size: int = 4, seed: int = 0, **kwargs):
    return xor_lock(netlist, key_size, seed=seed, **kwargs)


@register_scheme(
    "sarlock", description="SARLock point-function comparator (paper scheme 1)"
)
def _sarlock(netlist: Netlist, key_size: int = 4, seed: int = 0, **kwargs):
    return sarlock_lock(netlist, key_size, seed=seed, **kwargs)


@register_scheme(
    "antisat", description="Anti-SAT block (key is ka‖kb; key_size must be even)"
)
def _antisat(netlist: Netlist, key_size: int = 4, seed: int = 0, **kwargs):
    if key_size % 2:
        raise LockingError(
            f"antisat key_size must be even (got {key_size}): the key is "
            "two equal-width halves ka‖kb"
        )
    return antisat_lock(netlist, key_size // 2, seed=seed, **kwargs)


@register_scheme(
    "lut",
    description="two-stage LUT insertion (spec: preset name or field dict)",
)
def _lut(
    netlist: Netlist,
    spec: str | Mapping | LutModuleSpec = "small",
    seed: int = 0,
    **kwargs,
):
    return lut_lock(netlist, LutModuleSpec.coerce(spec), seed=seed, **kwargs)


@register_scheme(
    "entangled",
    description="parity-entangled SARLock (the D1 multi-key countermeasure)",
)
def _entangled(
    netlist: Netlist,
    key_size: int = 4,
    seed: int = 0,
    resist_effort: int = 0,
    **kwargs,
):
    return entangled_sarlock(
        netlist, key_size, seed=seed, resist_effort=resist_effort, **kwargs
    )
