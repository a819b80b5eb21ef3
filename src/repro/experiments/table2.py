"""Table 2: runtime of attacking LUT-based insertion.

For each benchmark: the baseline single-key SAT attack versus the
multi-key attack at ``N = 4`` (16 sub-tasks).  As in the paper we
report the minimum / mean / maximum sub-task runtime and the
``maximum / baseline`` ratio — the attack's wall-clock cost on a
16-core machine is its slowest sub-task.

The benchmark list is a thin :class:`~repro.scenarios.spec.ScenarioSpec`
over the scenario matrix (one ``scenario_cell`` per circuit, with the
baseline arm and CEC verification enabled): rows fan out across worker
processes under ``--jobs`` and re-runs come back from the on-disk
result cache.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

from repro.experiments.report import cec_verdict, format_table, seconds
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import run_matrix
from repro.scenarios.spec import ScenarioSpec

#: The paper's Table 2 benchmark list.
TABLE2_CIRCUITS = (
    "c880",
    "c1355",
    "c1908",
    "c2670",
    "c3540",
    "c5315",
    "c6288",
    "c7552",
)


@dataclass
class Table2Row:
    """One benchmark's baseline-vs-multikey comparison."""

    circuit: str
    baseline_seconds: float
    baseline_status: str
    min_seconds: float
    mean_seconds: float
    max_seconds: float
    multikey_status: str
    ratio: float  # max sub-task / baseline (the paper's metric)
    baseline_dips: int
    dips_per_task: list[int]
    composition_equivalent: bool | None = None


@dataclass
class Table2Result:
    scale: float
    effort: int
    spec: LutModuleSpec
    rows: list[Table2Row] = field(default_factory=list)

    @classmethod
    def from_payload(cls, payload: dict) -> "Table2Result":
        """Rebuild from ``asdict`` output (a JSON round trip is lossless)."""
        data = dict(payload)
        data["spec"] = LutModuleSpec(**data["spec"])
        data["rows"] = [Table2Row(**row) for row in data.get("rows", [])]
        return cls(**data)

    def format(self) -> str:
        headers = [
            "Circuit",
            "Baseline [5]",
            "Minimum",
            "Mean",
            "Maximum",
            "Maximum/Baseline",
            "CEC",
        ]
        body = []
        for row in self.rows:
            body.append(
                [
                    row.circuit,
                    seconds(row.baseline_seconds)
                    + ("" if row.baseline_status == "ok" else "!"),
                    seconds(row.min_seconds),
                    seconds(row.mean_seconds),
                    seconds(row.max_seconds)
                    + ("" if row.multikey_status == "ok" else "!"),
                    f"{row.ratio:.3f}",
                    cec_verdict(row.composition_equivalent),
                ]
            )
        title = (
            f"Table 2: runtime of attacking LUT-based insertion "
            f"(scale={self.scale}, {self.spec.key_bits}-bit key, N={self.effort})"
        )
        return format_table(headers, body, title=title)


def table2_spec(
    circuits: tuple[str, ...],
    scale: float,
    spec: str | Mapping | LutModuleSpec,
    effort: int,
    time_limit_per_task: float | None,
    seed: int,
    verify: bool,
    engine: str = "sharded",
) -> ScenarioSpec:
    """Table 2 as a declarative scenario grid.

    One LUT-locked cell per circuit, with the ``N = 0`` baseline arm
    and (optionally) CEC verification of the composed multi-key
    netlist.  ``engine`` selects the N > 0 implementation and *is*
    hashed — timing columns are part of the artifact, and the engines
    earn different ones.
    """
    return ScenarioSpec(
        schemes=[("lut", {"spec": asdict(LutModuleSpec.coerce(spec))})],
        attacks=("sat",),
        engines=(engine,),
        circuits=tuple(circuits),
        scale=scale,
        efforts=(effort,),
        seeds=(seed,),
        time_limit_per_task=time_limit_per_task,
        include_baseline=True,
        verify_composition=verify,
    )


def run_table2(
    circuits: tuple[str, ...] = TABLE2_CIRCUITS,
    scale: float = 0.4,
    spec: str | Mapping | LutModuleSpec | None = None,
    effort: int = 4,
    parallel: bool = True,
    processes: int | None = None,
    time_limit_per_task: float | None = 300.0,
    seed: int = 1,
    verify: bool = True,
    runner: Runner | None = None,
    engine: str = "sharded",
) -> Table2Result:
    """Regenerate Table 2.

    ``spec`` (a preset name, field mapping or instance) defaults to
    :meth:`LutModuleSpec.paper_scale` (the 14-input two-stage module).
    ``verify=True`` additionally composes
    the 16 recovered keys per Fig. 1(b) and proves CEC equivalence —
    something the paper asserts but does not report per row.

    ``runner`` fans rows out across processes and serves cached rows;
    when its pool will execute more than one row the *inner* sub-task
    pool is disabled so worker processes do not oversubscribe the
    machine (a lone uncached row keeps its own 2^N-way pool).

    ``engine`` selects the multi-key implementation for the N > 0 arm
    (the baseline column is always the classic cold SAT attack): the
    default ``"sharded"`` engine shares one miter encoding across the
    ``2^N`` sub-spaces, ``"reference"`` reproduces the paper's literal
    per-sub-space flow.
    """
    spec = LutModuleSpec.coerce(spec or "paper")
    matrix = run_matrix(
        table2_spec(
            circuits=circuits,
            scale=scale,
            spec=spec,
            effort=effort,
            time_limit_per_task=time_limit_per_task,
            seed=seed,
            verify=verify,
            engine=engine,
        ),
        runner=runner or Runner(),
        inner_parallel=parallel,
        processes=processes,
    )
    result = Table2Result(scale=scale, effort=effort, spec=spec)
    for cell in matrix.cells:
        result.rows.append(
            Table2Row(
                circuit=cell.circuit,
                baseline_seconds=cell.baseline_seconds,
                baseline_status=cell.baseline_status,
                min_seconds=cell.min_seconds,
                mean_seconds=cell.mean_seconds,
                max_seconds=cell.max_seconds,
                multikey_status=cell.status,
                ratio=cell.ratio,
                baseline_dips=cell.baseline_dips,
                dips_per_task=cell.dips_per_task,
                composition_equivalent=cell.composition_equivalent,
            )
        )
    return result
