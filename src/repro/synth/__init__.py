"""Pinned synthesis and a cell library.

The paper synthesizes each conditional netlist with Synopsys Design
Compiler to "remove any redundant logic" (Algorithm 1, line 4).  This
package provides:

* :func:`synthesize` — pinned synthesis on :mod:`repro.circuit.opt`,
  the repository's one optimizer: pinned inputs are tied to constants
  and the full fold/strash/cone pipeline runs to a fixpoint;
* decomposition to bounded-arity gates and a Nangate-45nm-flavoured
  cell library for area estimation.
"""

from repro.synth.library import CellLibrary, NANGATE45ish, estimate_area
from repro.synth.mapping import decompose_to_max_arity
from repro.synth.optimize import SynthesisResult, synthesize

__all__ = [
    "decompose_to_max_arity",
    "synthesize",
    "SynthesisResult",
    "CellLibrary",
    "NANGATE45ish",
    "estimate_area",
]
