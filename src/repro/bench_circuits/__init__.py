"""Benchmark circuit generators.

The paper evaluates on the ISCAS'85 suite.  The original ``.bench``
files cannot ship with this reproduction, so this package generates
*functional stand-ins*: circuits of the same functional family
(adders, ALUs, error correctors, multipliers, comparators) with the
same interface profile as the named benchmark at ``scale=1.0`` and a
``scale`` knob to shrink word widths for pure-Python SAT budgets.

Real ``.bench`` netlists drop in next to the stand-ins through
:mod:`repro.bench_circuits.corpus`: ISCAS'85-profile reconstructions
(``real_c432``/``real_c499``/``real_c880``) ship under ``data/`` and
user files register at runtime via :func:`register_corpus_file`; every
circuit-name consumer (matrix, service, CLI) resolves through
:func:`resolve_circuit`.  ``c17`` is tiny and public, so it is
embedded verbatim.
"""

from repro.bench_circuits.generators import (
    array_multiplier,
    hamming_sec_corrector,
    priority_controller,
    ripple_carry_adder,
    simple_alu,
)
from repro.bench_circuits.corpus import (
    CorpusEntry,
    CorpusError,
    circuit_names,
    corpus_entry,
    corpus_names,
    known_circuit,
    load_corpus,
    register_corpus_file,
    resolve_circuit,
)
from repro.bench_circuits.iscas85 import (
    ISCAS85_PROFILES,
    c17,
    iscas85_like,
    iscas85_names,
)

__all__ = [
    "CorpusEntry",
    "CorpusError",
    "circuit_names",
    "corpus_entry",
    "corpus_names",
    "known_circuit",
    "load_corpus",
    "register_corpus_file",
    "resolve_circuit",
    "ripple_carry_adder",
    "array_multiplier",
    "simple_alu",
    "hamming_sec_corrector",
    "priority_controller",
    "c17",
    "iscas85_like",
    "iscas85_names",
    "ISCAS85_PROFILES",
]
