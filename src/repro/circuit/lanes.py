"""The simulation backend, as the benchmark's provenance stamp names it.

Every evaluation runs on the big-int path of
:class:`~repro.circuit.compiled.CompiledCircuit`: one arbitrary-precision
integer per net, one bitwise operation per gate.  There is no second
backend and no lever to choose one.  These two names exist only for the
provenance stamp that ``perfbench/run.py`` writes into every result.
"""

from __future__ import annotations

import importlib.util


def default_lanes() -> str:
    """The simulation backend every sweep runs on: ``"python"``."""
    return "python"


def numpy_available() -> bool:
    """True when numpy is importable; checked without importing it."""
    return importlib.util.find_spec("numpy") is not None
