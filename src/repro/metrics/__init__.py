"""Corruption/confidentiality metrics as a first-class results axis.

The subsystem in three seams, mirroring schemes/attacks/solvers:

* :mod:`repro.metrics.registry` — ``@register_metric`` + lookup; a
  metric is popcount arithmetic over a shared
  :class:`~repro.metrics.engine.SampleSweep`.
* :mod:`repro.metrics.engine` — :func:`evaluate_corruption` builds the
  sweep bit-parallel (oracle golden outputs vs. the locked circuit
  under sampled wrong keys, behind the opt lever) and runs the
  requested metrics.
* :mod:`repro.metrics.task` — the content-hashed ``corruption_cell``
  runner task, so metric cells cache and replay like matrix cells.

Typical use::

    from repro.metrics import evaluate_corruption
    report = evaluate_corruption(locked, original,
                                 metrics=("corruption", "subspace"),
                                 key_samples=64, effort=2)
    print(report.format())

Matrix integration: ``ScenarioSpec(metrics=("corruption",))`` attaches
metric columns to every cell — see :mod:`repro.scenarios`.
"""

from repro.metrics.engine import (
    DEFAULT_INPUT_SAMPLES,
    DEFAULT_KEY_SAMPLES,
    CorruptionReport,
    SampleSweep,
    evaluate_corruption,
)
from repro.metrics.registry import (
    Metric,
    MetricInfo,
    MetricValue,
    metric_info,
    register_metric,
    registered_metrics,
)
from repro.metrics.task import corruption_cell_task

__all__ = [
    "CorruptionReport",
    "DEFAULT_INPUT_SAMPLES",
    "DEFAULT_KEY_SAMPLES",
    "Metric",
    "MetricInfo",
    "MetricValue",
    "SampleSweep",
    "corruption_cell_task",
    "evaluate_corruption",
    "metric_info",
    "register_metric",
    "registered_metrics",
]
