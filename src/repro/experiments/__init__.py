"""Experiment runners regenerating the paper's tables and figures.

Each module owns one artifact:

* :mod:`repro.experiments.table1` — Table 1 (#DIP vs splitting effort,
  SARLock-locked c7552-class),
* :mod:`repro.experiments.table2` — Table 2 (runtime of attacking
  LUT-based insertion, baseline vs 16 parallel sub-tasks),
* :mod:`repro.experiments.figure1` — Fig. 1(a) error distribution and
  Fig. 1(b) multi-key MUX composition,
* :mod:`repro.experiments.figure2` — corruption rate vs. number of
  key sub-spaces (the confidentiality counterpart of Fig. 1, built on
  :mod:`repro.metrics`),
* :mod:`repro.experiments.ablation_splitting` — A1: splitting-input
  selection strategies,
* :mod:`repro.experiments.ablation_synthesis` — A2: conditional-netlist
  synthesis on/off,
* :mod:`repro.experiments.defense` — D1: the multi-key countermeasure.

Every runner accepts a scale/limits so the same code serves smoke
tests, the pytest benchmarks and full-scale reproduction runs.  All but
Figure 1 are one :class:`~repro.scenarios.spec.ScenarioSpec` (or a
``corruption_cell`` curve) plus a formatter, and submit their cells as
:mod:`repro.runner` tasks: pass a
configured :class:`repro.runner.Runner` to fan work out across
processes and reuse cached artifacts.
"""

from repro.experiments.defense import DefenseResult, run_defense_experiment
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2

__all__ = [
    "run_table1",
    "Table1Result",
    "run_table2",
    "Table2Result",
    "run_figure1",
    "Figure1Result",
    "run_figure2",
    "Figure2Result",
    "run_defense_experiment",
    "DefenseResult",
]
