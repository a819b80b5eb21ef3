"""The corruption-metric registry.

Metrics register by name with ``@register_metric`` into one
:class:`~repro.registry.Registry`; ``registered_metrics()`` drives
``--list-metrics`` and envelope validation.

A metric is a function from a :class:`repro.metrics.engine.SampleSweep`
(the shared wrong-key x input-pattern diff material, computed once per
cell) to a :class:`MetricValue`: one headline float in ``[0, 1]`` (or
bits, for entropy) plus a JSON-safe detail mapping.  Metrics never
touch the circuit directly — everything they need is popcount
arithmetic over the sweep's diff words, which is what makes every
metric bit-identical across lanes backends, opt levels and multi-key
engines for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Protocol

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.engine import SampleSweep

__all__ = [
    "Metric",
    "MetricInfo",
    "MetricValue",
    "metric_info",
    "register_metric",
    "registered_metrics",
]


@dataclass(frozen=True)
class MetricValue:
    """One computed metric: headline value + JSON-safe detail."""

    value: float
    detail: dict = field(default_factory=dict)


class Metric(Protocol):
    """Common protocol: sweep in, :class:`MetricValue` out."""

    def __call__(self, sweep: "SampleSweep") -> MetricValue: ...


@dataclass(frozen=True)
class MetricInfo:
    """Registry entry for one corruption metric."""

    name: str
    fn: Metric
    description: str


_METRICS: Registry[MetricInfo] = Registry("metric", identity=attrgetter("fn"))
metric_info = _METRICS.get
registered_metrics = _METRICS.names


def register_metric(name: str, description: str = ""):
    """Class/function decorator registering a corruption metric.

    ::

        @register_metric("always_half", description="toy example")
        def _always_half(sweep):
            return MetricValue(0.5)
    """

    def decorator(fn: Callable) -> Callable:
        _METRICS.register(name, MetricInfo(name, fn, description))
        return fn

    return decorator
