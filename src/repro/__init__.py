"""Reproduction of "On the One-Key Premise of Logic Locking" (DAC'24 LBR).

The package provides, from the ground up:

* :mod:`repro.sat` — a CDCL SAT solver (MiniSAT substitute),
* :mod:`repro.circuit` — gate-level netlists, simulation, `.bench` I/O
  and SAT-based equivalence checking,
* :mod:`repro.synth` — pinned synthesis of conditional netlists on
  ``circuit.opt`` (Design Compiler substitute) and a cell library,
* :mod:`repro.locking` — SARLock, LUT-based insertion, XOR locking and
  Anti-SAT,
* :mod:`repro.oracle` — the black-box "working chip" oracle,
* :mod:`repro.attacks` — the classic oracle-guided SAT attack,
* :mod:`repro.core` — the paper's contribution: the multi-key
  input-space-splitting attack and its MUX-based key composition,
* :mod:`repro.bench_circuits` — ISCAS'85-class benchmark generators,
* :mod:`repro.scenarios` — the scenario matrix: declarative
  ``scheme x attack x engine x circuit`` grids under the multi-key
  premise,
* :mod:`repro.experiments` — runners regenerating each paper table and
  figure (thin scenario specs where the matrix covers them),
* :mod:`repro.service` — the typed job API: versioned request/response
  envelopes, streaming job events, and the ``repro serve`` JSON-lines
  daemon the CLI is a thin client of.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
