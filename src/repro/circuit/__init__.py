"""Gate-level combinational circuit substrate.

Provides the netlist intermediate representation used throughout the
library, ISCAS ``.bench`` file I/O, bit-parallel simulation, structural
analysis (cones, levels, key-controlled gate counting — the paper's
splitting-input heuristic needs these), the one Tseitin gate encoder
(:mod:`repro.circuit.cnf`, writing straight into a solver), and
SAT-based combinational equivalence checking.
"""

from repro.circuit.analysis import (
    fanin_cone,
    fanout_cone,
    levelize,
    rank_inputs_by_key_influence,
)
from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.cnf import encode_gate, encode_gates
from repro.circuit.compiled import CompiledCircuit, CompileError
from repro.circuit.equivalence import EquivalenceResult, check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.netlist import Gate, Netlist, NetlistError
from repro.circuit.opt import OptimizedCircuit, optimize_compiled, run_pass
from repro.circuit.simulator import (
    evaluate,
    simulate,
    simulate_reference,
    truth_table,
)

__all__ = [
    "GateType",
    "Gate",
    "Netlist",
    "NetlistError",
    "CompiledCircuit",
    "CompileError",
    "parse_bench",
    "format_bench",
    "simulate",
    "simulate_reference",
    "evaluate",
    "truth_table",
    "levelize",
    "fanin_cone",
    "fanout_cone",
    "rank_inputs_by_key_influence",
    "encode_gate",
    "encode_gates",
    "check_equivalence",
    "EquivalenceResult",
    "OptimizedCircuit",
    "optimize_compiled",
    "run_pass",
]
