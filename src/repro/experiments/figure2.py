"""Figure 2: corruption rate vs. number of key sub-spaces.

The confidentiality counterpart of Figure 1.  Figure 1 shows *where*
wrong keys unlock correct function; this figure quantifies the same
phenomenon as a curve: as the input space is partitioned into ``2^N``
sub-spaces along the fanout-ranked splitting inputs, the mean
per-sub-space corruption of a wrong key falls and the fraction of
(wrong key, sub-space) pairs that the key unlocks *exactly* rises —
the one-key premise dissolving into per-sub-space correctness.

The driver is a thin spec over the ``corruption_cell`` task
(:mod:`repro.metrics.task`): one cached cell per effort, all riding
the shared runner — parity with direct
:func:`repro.metrics.evaluate_corruption` calls is pinned by
``tests/metrics/test_figure2.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runner import Runner, TaskSpec


@dataclass
class Figure2Row:
    """One point on the curve: splitting effort ``N`` -> corruption."""

    effort: int
    num_subspaces: int
    splitting_inputs: list[str]
    corruption: float
    subspace_rate: float
    subspace_min: float
    subspace_max: float
    unlock_fraction: float


@dataclass
class Figure2Result:
    """The corruption-vs-sub-spaces curve for one locked circuit."""

    circuit: str
    scheme: str
    key_size: int
    scale: float
    key_samples: int
    keys_sampled: int
    exhaustive_keys: bool
    input_samples: int
    seed: int
    rows: list[Figure2Row] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "Figure2Result":
        data = dict(payload)
        data["rows"] = [
            row if isinstance(row, Figure2Row) else Figure2Row(**row)
            for row in data.get("rows", [])
        ]
        return cls(**data)

    def format(self) -> str:
        from repro.experiments.report import format_table

        headers = [
            "N", "2^N", "corruption", "subspace rate",
            "min", "max", "unlocked pairs",
        ]
        rows = [
            [
                row.effort,
                row.num_subspaces,
                f"{row.corruption:.4g}",
                f"{row.subspace_rate:.4g}",
                f"{row.subspace_min:.4g}",
                f"{row.subspace_max:.4g}",
                f"{row.unlock_fraction:.1%}",
            ]
            for row in self.rows
        ]
        title = (
            f"Figure 2: per-sub-space corruption, {self.scheme} on "
            f"{self.circuit} (|K|={self.key_size}, {self.keys_sampled} "
            f"wrong keys{' exhaustive' if self.exhaustive_keys else ''}, "
            f"{self.input_samples} patterns)"
        )
        return format_table(headers, rows, title=title)


def figure2_tasks(
    circuit: str,
    scheme: str,
    scheme_params: dict,
    scale: float,
    efforts: tuple[int, ...],
    key_samples: int,
    seed: int,
) -> list[TaskSpec]:
    """One ``corruption_cell`` task per effort point."""
    from repro.metrics import corruption_cell_task

    return [
        corruption_cell_task(
            scheme=scheme,
            scheme_params=scheme_params,
            circuit=circuit,
            scale=scale,
            effort=effort,
            seed=seed,
            metrics=("corruption", "subspace"),
            key_samples=key_samples,
        )
        for effort in efforts
    ]


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
    """Regenerate the corruption-vs-sub-spaces curve.

    ``key_size`` is a convenience merged into ``scheme_params`` when
    the params do not pin one (matching the other drivers' shape);
    ``efforts`` are the ``N`` points of the curve.  Every point is one
    cached ``corruption_cell`` task on the shared runner.
    """
    runner = runner or Runner()
    params = dict(scheme_params or {})
    params.setdefault("key_size", int(key_size))
    efforts = tuple(int(n) for n in efforts)
    tasks = figure2_tasks(
        circuit=circuit,
        scheme=scheme,
        scheme_params=params,
        scale=scale,
        efforts=efforts,
        key_samples=int(key_samples),
        seed=int(seed),
    )
    reports = [task.artifact for task in runner.run(tasks)]
    rows = []
    for report in reports:
        subspace = report["metrics"]["subspace"]["detail"]
        rows.append(
            Figure2Row(
                effort=report["effort"],
                num_subspaces=subspace["num_subspaces"],
                splitting_inputs=list(subspace["splitting_inputs"]),
                corruption=report["metrics"]["corruption"]["value"],
                subspace_rate=report["metrics"]["subspace"]["value"],
                subspace_min=subspace["min"],
                subspace_max=subspace["max"],
                unlock_fraction=subspace["unlock_fraction"],
            )
        )
    first = reports[0]
    return Figure2Result(
        circuit=circuit,
        scheme=scheme,
        key_size=first["key_size"],
        scale=float(scale),
        key_samples=int(key_samples),
        keys_sampled=first["keys_sampled"],
        exhaustive_keys=first["exhaustive_keys"],
        input_samples=first["input_samples"],
        seed=int(seed),
        rows=rows,
    )
