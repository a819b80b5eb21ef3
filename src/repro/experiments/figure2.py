"""Figure 2: corruption rate vs. number of key sub-spaces.

The confidentiality counterpart of Figure 1.  Figure 1 shows *where*
wrong keys unlock correct function; this figure quantifies the same
phenomenon as a curve: as the input space is partitioned into ``2^N``
sub-spaces along the fanout-ranked splitting inputs, the mean
per-sub-space corruption of a wrong key falls and the fraction of
(wrong key, sub-space) pairs that the key unlocks *exactly* rises —
the one-key premise dissolving into per-sub-space correctness.

The curve is a metrics-only :class:`~repro.scenarios.spec.ScenarioSpec`
(one scheme, one circuit, one seed, the efforts as its ``N`` points):
:meth:`~repro.scenarios.spec.ScenarioSpec.expand_metrics` turns it into
one cached ``corruption_cell`` task per effort on the shared runner,
and :func:`format_figure2` renders the returned
:class:`~repro.metrics.CorruptionReport` values.  Parity with direct
:func:`repro.metrics.evaluate_corruption` calls is pinned by
``tests/metrics/test_service_metrics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import format_table
from repro.metrics import CorruptionReport
from repro.runner import Runner
from repro.scenarios.spec import ScenarioSpec


@dataclass
class Figure2Result:
    """Figure 2's spec and its reports, one per effort in spec order."""

    spec: ScenarioSpec
    reports: list[CorruptionReport] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "Figure2Result":
        return cls(
            spec=ScenarioSpec.from_payload(payload["spec"]),
            reports=[CorruptionReport.from_payload(r) for r in payload["reports"]],
        )


def format_figure2(result: Figure2Result) -> str:
    """Figure 2's text: one row per effort ``N``.

    The scheme and circuit come from ``result.spec`` (a report names
    the netlist it locked, not the requested circuit); the key and
    sample counts from the first report, when there is one.
    """
    headers = [
        "N", "2^N", "corruption", "subspace rate",
        "min", "max", "unlocked pairs",
    ]
    rows = []
    for report in result.reports:
        subspace = report.detail("subspace")
        rows.append([
            report.effort,
            subspace["num_subspaces"],
            f"{report.value('corruption'):.4g}",
            f"{report.value('subspace'):.4g}",
            f"{subspace['min']:.4g}",
            f"{subspace['max']:.4g}",
            f"{subspace['unlock_fraction']:.1%}",
        ])
    spec = result.spec
    title = (
        f"Figure 2: per-sub-space corruption, {spec.schemes[0][0]} on "
        f"{spec.circuits[0]}"
    )
    if result.reports:
        first = result.reports[0]
        title += (
            f" (|K|={first.key_size}, {first.keys_sampled} wrong keys"
            f"{' exhaustive' if first.exhaustive_keys else ''}, "
            f"{first.input_samples} patterns)"
        )
    return format_table(headers, rows, title=title)


def figure2_spec(
    circuit: str,
    scheme: str,
    scheme_params: dict | None,
    key_size: int,
    scale: float,
    efforts: tuple[int, ...],
    key_samples: int,
    seed: int,
) -> ScenarioSpec:
    """Figure 2 as a metrics-only scenario grid.

    ``key_size`` is merged into ``scheme_params`` unless they pin one;
    the spec's attack axes are never expanded, only
    :meth:`~repro.scenarios.spec.ScenarioSpec.expand_metrics`.
    """
    params = dict(scheme_params or {})
    params.setdefault("key_size", int(key_size))
    return ScenarioSpec(
        schemes=[(scheme, params)],
        circuits=[circuit],
        scale=scale,
        efforts=efforts,
        seeds=[seed],
        metrics=("corruption", "subspace"),
        key_samples=key_samples,
    )


def run_figure2(
    circuit: str = "c432",
    scheme: str = "sarlock",
    scheme_params: dict | None = None,
    key_size: int = 6,
    scale: float = 0.25,
    efforts: tuple[int, ...] = (0, 1, 2, 3),
    key_samples: int = 32,
    seed: int = 0,
    runner: Runner | None = None,
) -> Figure2Result:
    """Regenerate the corruption-vs-sub-spaces curve (render it with
    :func:`format_figure2`).

    ``efforts`` are the ``N`` points of the curve; every point is one
    cached ``corruption_cell`` task on the shared runner.
    """
    spec = figure2_spec(
        circuit=circuit,
        scheme=scheme,
        scheme_params=scheme_params,
        key_size=key_size,
        scale=scale,
        efforts=efforts,
        key_samples=key_samples,
        seed=seed,
    )
    results = (runner or Runner()).run(spec.expand_metrics())
    return Figure2Result(
        spec=spec,
        reports=[CorruptionReport.from_payload(r.artifact) for r in results],
    )
