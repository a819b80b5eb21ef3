"""Logic-locking schemes.

Implements the paper's two benchmark targets — SARLock [7] and
LUT-based insertion [6] — plus random XOR/XNOR locking (the classic
baseline the SAT attack was built against) and Anti-SAT as an
extension.  Every scheme returns a :class:`LockedCircuit` bundling the
locked netlist, the ordered key ports and the correct key, and is
registered by name in :mod:`repro.locking.registry` so scenario grids
and the CLI can reference schemes declaratively.
"""

from repro.locking.antisat import antisat_lock
from repro.locking.base import LockedCircuit, LockingError, random_key
from repro.locking.defense import (
    SplittingResistance,
    entangled_sarlock,
    splitting_resistance,
)
from repro.locking.lut_lock import LutModuleSpec, lut_lock
from repro.locking.registry import (
    SchemeInfo,
    lock_circuit,
    register_scheme,
    registered_schemes,
    scheme_info,
)
from repro.locking.sarlock import sarlock_lock
from repro.locking.xor_lock import xor_lock

__all__ = [
    "LockedCircuit",
    "LockingError",
    "random_key",
    "xor_lock",
    "sarlock_lock",
    "antisat_lock",
    "lut_lock",
    "LutModuleSpec",
    "entangled_sarlock",
    "splitting_resistance",
    "SplittingResistance",
    "SchemeInfo",
    "register_scheme",
    "registered_schemes",
    "scheme_info",
    "lock_circuit",
]
