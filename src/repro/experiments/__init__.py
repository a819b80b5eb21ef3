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
Figure 1 submit their cells as :mod:`repro.runner` tasks: pass a
configured :class:`repro.runner.Runner` to fan work out across
processes and reuse cached artifacts.  Table 1, Table 2, D1, A1 and A2
are each one :class:`~repro.scenarios.spec.ScenarioSpec`: their drivers
return the :class:`~repro.scenarios.matrix.MatrixResult` of
:func:`~repro.scenarios.matrix.run_matrix`, and a plain formatter per
module (:func:`~repro.experiments.table1.format_table1`, ...) renders
the table from its cells and ``spec``.  Figure 2 is a metrics-only
spec: its driver returns the spec with the
:class:`~repro.metrics.CorruptionReport` of each ``corruption_cell``,
and :func:`~repro.experiments.figure2.format_figure2` renders them.
Figure 1, a worked example rather than a grid, keeps its own result
class.
"""

from repro.experiments.defense import format_defense, run_defense_experiment
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import format_figure2, run_figure2
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2

__all__ = [
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "run_figure1",
    "Figure1Result",
    "run_figure2",
    "format_figure2",
    "run_defense_experiment",
    "format_defense",
]
