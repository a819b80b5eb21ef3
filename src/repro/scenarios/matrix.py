"""The scenario-matrix runner: one worker kind for every grid cell.

``scenario_cell`` is the single registered task behind the whole
matrix: lock a carrier circuit with a registered scheme, run the
multi-key attack with a registered per-sub-space attack on a chosen
engine, optionally compare against the ``N = 0`` baseline, CEC the
composed keys, and measure defense resistance.  The paper's experiment
drivers (:mod:`repro.experiments.table1` / ``table2`` / ``defense`` /
``ablation_splitting`` / ``ablation_synthesis``) are thin
:class:`~repro.scenarios.spec.ScenarioSpec` wrappers over this worker —
and any other ``scheme x attack x engine x circuit`` cell is one
declarative spec away.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

from repro.circuit.opt import OPT_LEVEL
from repro.core.compose import verify_composition
from repro.core.multikey import multikey_attack
from repro.locking.registry import lock_carrier
from repro.runner import Runner, TaskSpec, canonical_json, register_task
from repro.scenarios.spec import ScenarioSpec, field_values


@dataclass
class ScenarioCell:
    """One evaluated grid point: the scenario plus every metric.

    Optional blocks (baseline comparison, CEC verdict, resistance
    levers) are ``None`` when the spec did not request them.
    """

    scheme: str
    scheme_params: dict
    attack: str
    attack_params: dict
    engine: str
    engine_used: str
    circuit: str
    scale: float
    effort: int
    seed: int
    status: str
    key_size: int
    gates: int
    dips_per_task: list[int]
    max_dips: int
    uniform: bool
    key_ints: list[int | None]
    oracle_queries: int
    min_seconds: float
    mean_seconds: float
    max_seconds: float
    wall_seconds: float
    encode_seconds: float
    baseline_seconds: float | None = None
    baseline_status: str | None = None
    baseline_dips: int | None = None
    ratio: float | None = None
    composition_equivalent: bool | None = None
    subspace_keys: int | None = None
    gate_reduction: float | None = None
    area_overhead: float | None = None
    # Default covers payloads recorded before the backend registry.
    solver: str = "python"
    # Default covers payloads recorded before the optimization lever.
    opt: str = "off"
    # Defaults cover payloads recorded before the metrics subsystem.
    # ``metrics`` maps metric name -> headline value; the detail blocks
    # keep the full per-key/per-output material for downstream plots.
    metrics: dict | None = None
    metrics_detail: dict | None = None
    key_samples: int | None = None
    metrics_seed: int | None = None
    # Defaults cover payloads recorded before these axes; gates_after
    # is each sub-task's conditional-netlist size, as dips_per_task.
    selection: str = "fanout"
    synthesis: bool = True
    gates_after: list[int] | None = None
    # Defaults cover payloads recorded before these fields.  ``exact``
    # says every sub-task's key is exact (the CEC precondition);
    # ``subtask_stats`` holds each sub-task's ``seconds`` (attack plus
    # synthesis) and ``solver_stats`` counters, in index order.
    splitting_inputs: list[str] | None = None
    exact: bool | None = None
    subtask_stats: list[dict] | None = None


def evaluate_cell(params: dict, runner: Runner | None = None) -> ScenarioCell:
    """Evaluate one (scheme, attack, engine, circuit, N) cell.

    ``params`` are a ``scenario_cell`` task's worker params.  ``runner``
    is where the cell's ``2^N`` sub-attacks fan out (see
    :func:`repro.core.multikey.multikey_attack`); without one they run
    serially, or on a private pool when ``params["parallel"]`` is set.
    """
    seed = params["seed"]
    selection = params.get("selection", "fanout")
    run_synthesis = params.get("run_synthesis", True)
    effort = params["effort"]
    solver = params.get("solver")
    time_limit = params.get("time_limit_per_task")
    original, locked = lock_carrier(params)

    baseline_seconds = baseline_status = baseline_dips = ratio = None
    if params.get("include_baseline"):
        # The paper's baseline column: the exact single-key SAT attack
        # (N = 0, reference arm), whatever the cell's own attack is.
        baseline = multikey_attack(
            locked,
            original,
            effort=0,
            time_limit_per_task=time_limit,
            seed=seed,
            solver=solver,
        )
        baseline_seconds = baseline.max_subtask_seconds
        baseline_status = baseline.status
        baseline_dips = baseline.total_dips

    attack = multikey_attack(
        locked,
        original,
        effort=effort,
        selection=selection,
        run_synthesis=run_synthesis,
        parallel=params.get("parallel", False),
        time_limit_per_task=time_limit,
        max_dips_per_task=params.get("max_dips_per_task"),
        seed=seed,
        engine=params["engine"],
        attack=params["attack"],
        attack_params=params.get("attack_params") or {},
        solver=solver,
        runner=runner,
    )
    if baseline_seconds is not None:
        ratio = attack.max_subtask_seconds / max(baseline_seconds, 1e-9)

    # CEC only exact keys: a "settled" AppSAT key would legitimately
    # fail it without the attack having failed.
    equivalent = None
    if params.get("verify") and attack.exact:
        equivalent = bool(
            verify_composition(
                locked, attack.splitting_inputs, attack.keys, original
            )
        )

    subspace_keys = gate_reduction = area_overhead = None
    if params.get("measure_resistance"):
        from repro.locking.defense import splitting_resistance
        from repro.synth.library import estimate_area

        resistance = splitting_resistance(locked, original, effort, seed=seed)
        subspace_keys = resistance.keys_unlocking_subspace
        gate_reduction = resistance.gate_reduction
        area_overhead = (
            estimate_area(locked.netlist) / estimate_area(original) - 1
        )

    dips = attack.dips_per_task
    return ScenarioCell(
        scheme=params["scheme"],
        scheme_params=dict(params.get("scheme_params") or {}),
        attack=params["attack"],
        attack_params=dict(params.get("attack_params") or {}),
        engine=params["engine"],
        engine_used=attack.engine,
        circuit=params["circuit"],
        scale=params["scale"],
        effort=effort,
        seed=seed,
        status=attack.status,
        key_size=locked.key_size,
        gates=locked.netlist.num_gates,
        dips_per_task=dips,
        max_dips=max(dips) if dips else 0,
        uniform=len(set(dips)) == 1,
        key_ints=attack.key_ints,
        oracle_queries=sum(t.oracle_queries for t in attack.subtasks),
        min_seconds=attack.min_subtask_seconds,
        mean_seconds=attack.mean_subtask_seconds,
        max_seconds=attack.max_subtask_seconds,
        wall_seconds=attack.wall_seconds,
        encode_seconds=attack.encode_seconds,
        baseline_seconds=baseline_seconds,
        baseline_status=baseline_status,
        baseline_dips=baseline_dips,
        ratio=ratio,
        composition_equivalent=equivalent,
        subspace_keys=subspace_keys,
        gate_reduction=gate_reduction,
        area_overhead=area_overhead,
        solver=attack.solver,
        opt=OPT_LEVEL,
        selection=selection,
        synthesis=run_synthesis,
        gates_after=[task.gates_after for task in attack.subtasks],
        splitting_inputs=attack.splitting_inputs,
        exact=attack.exact,
        subtask_stats=[
            {"seconds": task.total_seconds,
             "solver_stats": task.solver_stats}
            for task in attack.subtasks
        ],
    )


@register_task("scenario_cell")
def _scenario_cell_task(params: dict) -> dict:
    """Worker: evaluate one grid cell (:func:`evaluate_cell`)."""
    return field_values(evaluate_cell(params))


def scenario_cell_task(
    scheme: str,
    scheme_params: dict,
    attack: str,
    attack_params: dict,
    engine: str,
    circuit: str,
    scale: float,
    effort: int,
    seed: int,
    selection: str = "fanout",
    run_synthesis: bool = True,
    solver: str | None = None,
    time_limit_per_task: float | None = None,
    max_dips_per_task: int | None = None,
    include_baseline: bool = False,
    verify: bool = False,
    measure_resistance: bool = False,
    parallel: bool = False,
) -> TaskSpec:
    """The :class:`TaskSpec` for one matrix cell.

    Everything that determines the artifact — scheme, attack, engine,
    solver backend, circuit, budgets, the optional measurement blocks —
    is hashed (different backends may return different, equally valid,
    keys), along with the fixed optimization level; inner-attack
    parallelism lives in the unhashed execution context, so serial and
    fanned-out evaluations share cache entries.  ``selection`` and
    ``run_synthesis`` are hashed only off their defaults, so cells
    recorded before those axes existed keep their keys.
    """
    from repro.sat.registry import resolve_solver_name

    params = {
        "scheme": scheme,
        "scheme_params": dict(scheme_params or {}),
        "attack": attack,
        "attack_params": dict(attack_params or {}),
        "engine": engine,
        "circuit": circuit,
        "scale": scale,
        "effort": effort,
        "seed": seed,
        "solver": resolve_solver_name(solver),
        "opt": OPT_LEVEL,
        "time_limit_per_task": time_limit_per_task,
        "max_dips_per_task": max_dips_per_task,
        "include_baseline": include_baseline,
        "verify": verify,
        "measure_resistance": measure_resistance,
    }
    label = f"{scheme}x{attack}x{engine} {circuit} N={effort}"
    if selection != "fanout":
        params["selection"] = selection
        label += f" {selection}"
    if not run_synthesis:
        params["run_synthesis"] = False
        label += " no-synthesis"
    return TaskSpec(
        kind="scenario_cell",
        params=params,
        context={"parallel": parallel},
        label=label,
    )


#: Flat CSV column order (list/dict fields serialize as canonical JSON).
_CSV_COLUMNS = [
    "scheme", "scheme_params", "attack", "attack_params", "engine",
    "engine_used", "selection", "synthesis", "solver", "opt", "circuit",
    "scale", "effort", "seed", "status",
    "key_size", "gates", "max_dips", "uniform", "dips_per_task",
    "oracle_queries", "min_seconds", "mean_seconds", "max_seconds",
    "wall_seconds", "encode_seconds", "baseline_seconds",
    "baseline_status", "baseline_dips", "ratio",
    "composition_equivalent", "subspace_keys", "gate_reduction",
    "area_overhead",
]


@dataclass
class MatrixResult:
    """Every evaluated cell of one :class:`ScenarioSpec`, in grid order."""

    spec: ScenarioSpec
    cells: list[ScenarioCell] = field(default_factory=list)

    def select(self, **filters) -> list[ScenarioCell]:
        """Cells whose attributes match every ``field=value`` filter."""
        return [
            cell
            for cell in self.cells
            if all(getattr(cell, name) == value for name, value in filters.items())
        ]

    def cell(self, **filters) -> ScenarioCell:
        """The unique cell matching ``filters`` (KeyError otherwise)."""
        matches = self.select(**filters)
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} cells match {filters!r} (expected exactly 1)"
            )
        return matches[0]

    def format(self) -> str:
        """Human-readable summary table of the whole matrix."""
        # Imported lazily: repro.experiments' package __init__ pulls in
        # the table drivers, which are themselves built on this module.
        from repro.experiments.report import cec_verdict, format_table, seconds

        metric_names = list(self.spec.metrics)
        headers = [
            "Scheme", "|K|", "Attack", "Engine", "Circuit", "N",
            "Status", "max #DIP", "max t", "CEC",
        ] + metric_names
        rows = []
        for cell in self.cells:
            engine = cell.engine_used
            if cell.engine != cell.engine_used:
                engine = f"{cell.engine}->{cell.engine_used}"
            row = [
                cell.scheme,
                cell.key_size,
                cell.attack,
                engine,
                cell.circuit,
                cell.effort,
                cell.status,
                cell.max_dips,
                seconds(cell.max_seconds),
                cec_verdict(cell.composition_equivalent),
            ]
            for name in metric_names:
                value = (cell.metrics or {}).get(name)
                row.append("-" if value is None else f"{value:.4g}")
            rows.append(row)
        title = (
            f"Scenario matrix: {len(self.cells)} cells "
            f"(scale={self.spec.scale})"
        )
        return format_table(headers, rows, title=title)

    def to_payload(self) -> dict:
        """The matrix as one JSON-shaped dict (spec summary + cells).

        This is the service layer's response payload for matrix jobs;
        :meth:`from_payload` inverts it, so a response envelope that
        crossed a daemon socket reconstructs to an equal result.
        """
        return {
            "spec": self.spec.describe(),
            "cells": [field_values(cell) for cell in self.cells],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MatrixResult":
        """Rebuild a matrix result from :meth:`to_payload` output."""
        return cls(
            spec=ScenarioSpec.from_payload(payload["spec"]),
            cells=[ScenarioCell(**cell) for cell in payload["cells"]],
        )

    def to_json(self) -> str:
        """The full matrix as JSON (spec summary + every cell).

        Keys are sorted at every depth, so a cold run and its warm
        replay (whose nested ``metrics_detail`` comes back from the
        cache in sorted order) export the same bytes.
        """
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def csv_columns(self) -> list[str]:
        """The CSV header: fixed columns plus one per requested metric.

        Metric columns appear only when the spec asked for metrics, in
        the spec's roster order, so metric-free exports stay byte-
        compatible with earlier format versions.
        """
        columns = list(_CSV_COLUMNS)
        if self.spec.metrics:
            columns += ["key_samples", "metrics_seed"]
            columns += [f"metric_{name}" for name in self.spec.metrics]
        return columns

    def to_csv(self) -> str:
        """The matrix as flat CSV (one row per cell)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        columns = self.csv_columns()
        writer.writerow(columns)
        for cell in self.cells:
            record = field_values(cell)
            row = []
            for column in columns:
                if column.startswith("metric_"):
                    value = (record["metrics"] or {}).get(column[len("metric_"):])
                else:
                    value = record[column]
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                row.append(value)
            writer.writerow(row)
        return buffer.getvalue()


def _metric_point(scheme: str, scheme_params: dict, circuit: str,
                  effort: int, seed: int) -> tuple:
    """The grid-point key metric reports attach on (axis projection)."""
    return (scheme, canonical_json(scheme_params or {}), circuit, effort, seed)


def attach_metrics(result: MatrixResult, reports: dict[tuple, dict]) -> None:
    """Merge ``corruption_cell`` artifacts into their grid cells.

    ``reports`` is keyed by :func:`_metric_point`; every attack/engine
    cell at a grid point receives the point's single metric report —
    the dedup that makes metrics an axis *annotation*, not an axis
    multiplier.
    """
    for cell in result.cells:
        report = reports.get(
            _metric_point(
                cell.scheme, cell.scheme_params, cell.circuit,
                cell.effort, cell.seed,
            )
        )
        if report is None:
            continue
        cell.metrics = {
            name: block["value"] for name, block in report["metrics"].items()
        }
        cell.metrics_detail = {
            name: block["detail"] for name, block in report["metrics"].items()
        }
        cell.key_samples = report["key_samples"]
        cell.metrics_seed = report["seed"]


def run_matrix(
    spec: ScenarioSpec,
    runner: Runner | None = None,
    inner_parallel: bool = False,
) -> MatrixResult:
    """Evaluate every cell of ``spec`` through the shared runner.

    Parallelism lives in exactly one place: the runner's pool when it
    will actually fan cells out, otherwise inside each cell's ``2^N``
    sub-attacks (``inner_parallel=True``).  Context is unhashed, so
    flipping it is cache-safe.

    When the spec requests metrics, the deduplicated
    ``corruption_cell`` tasks ride the same runner submission (same
    pool, same cache) and their values land on every matching cell.

    A one-cell grid runs in the calling process (``jobs=1``, with the
    runner's cache, hooks and slots): its cell and its single metric
    task are not worth forking a pool for, and with metrics requested
    the cell's own sub-attacks stay the one place parallelism lives.
    """
    runner = runner or Runner()
    if spec.size == 1:
        runner = replace(runner, jobs=1)
    specs = spec.expand()
    if inner_parallel and (
        runner.jobs <= 1 or runner.pending_count(specs) <= 1
    ):
        specs = [
            replace(task, context={**task.context, "parallel": True})
            for task in specs
        ]
    result = MatrixResult(spec=spec)
    reports: dict[tuple, dict] = {}
    for task in runner.run(specs + spec.expand_metrics()):
        if task.spec.kind == "corruption_cell":
            params = task.spec.params
            reports[
                _metric_point(
                    params["scheme"], params["scheme_params"],
                    params["circuit"], params["effort"], params["seed"],
                )
            ] = task.artifact
        else:
            result.cells.append(ScenarioCell(**task.artifact))
    attach_metrics(result, reports)
    return result
