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
from dataclasses import asdict

from repro.experiments.report import cec_verdict, format_table, seconds
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import Runner
from repro.scenarios.matrix import MatrixResult, run_matrix
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


def format_table2(matrix: MatrixResult) -> str:
    """Table 2's text: one row per circuit, ``!`` marking an arm that
    did not finish; the title comes from ``matrix.spec``."""
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
    for cell in matrix.cells:
        body.append(
            [
                cell.circuit,
                seconds(cell.baseline_seconds)
                + ("" if cell.baseline_status == "ok" else "!"),
                seconds(cell.min_seconds),
                seconds(cell.mean_seconds),
                seconds(cell.max_seconds) + ("" if cell.status == "ok" else "!"),
                f"{cell.ratio:.3f}",
                cec_verdict(cell.composition_equivalent),
            ]
        )
    spec = matrix.spec
    lut = LutModuleSpec.coerce(spec.schemes[0][1]["spec"])
    title = (
        f"Table 2: runtime of attacking LUT-based insertion "
        f"(scale={spec.scale}, {lut.key_bits}-bit key, N={spec.efforts[0]})"
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
    time_limit_per_task: float | None = 300.0,
    seed: int = 1,
    verify: bool = True,
    runner: Runner | None = None,
    engine: str = "sharded",
) -> MatrixResult:
    """Regenerate Table 2 (render it with :func:`format_table2`).

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
    return run_matrix(
        table2_spec(
            circuits=circuits,
            scale=scale,
            spec=spec or "paper",
            effort=effort,
            time_limit_per_task=time_limit_per_task,
            seed=seed,
            verify=verify,
            engine=engine,
        ),
        runner=runner or Runner(),
        inner_parallel=parallel,
    )
