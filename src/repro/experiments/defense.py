"""Experiment D1: evaluating the multi-key countermeasure.

The paper's conclusion calls for "effective defenses to counter the
new 'multi-key' attack scenario"; this experiment evaluates the
prototype in :mod:`repro.locking.defense` head-to-head with plain
SARLock across the two levers the attack relies on:

* how many keys unlock the strongest sub-space the attacker can pick
  (exact, via BDDs),
* how much the conditional netlist shrinks,
* what the multi-key attack actually costs against each.

The two arms are a thin :class:`~repro.scenarios.spec.ScenarioSpec`
over the scenario matrix (one ``scenario_cell`` per scheme with the
baseline and resistance measurements enabled), so they run side by
side under ``--jobs`` and warm re-runs come from the result cache.
"""

from __future__ import annotations

from repro.experiments.report import format_table, seconds
from repro.runner import Runner
from repro.scenarios.matrix import MatrixResult, run_matrix
from repro.scenarios.spec import ScenarioSpec


def format_defense(matrix: MatrixResult) -> str:
    """D1's text: one row per scheme; the title comes from ``matrix.spec``."""
    headers = [
        "Scheme",
        "Keys/subspace",
        "Cond. shrink",
        "Base #DIP",
        "N-split max #DIP",
        "N-split max t",
        "Area +%",
    ]
    body = [
        [
            cell.scheme,
            cell.subspace_keys,
            f"{cell.gate_reduction:.0%}",
            cell.baseline_dips,
            cell.max_dips,
            seconds(cell.max_seconds),
            f"{cell.area_overhead * 100:.1f}%",
        ]
        for cell in matrix.cells
    ]
    spec = matrix.spec
    return format_table(
        headers,
        body,
        title=(
            f"D1: multi-key countermeasure on {spec.circuits[0]} "
            f"(scale={spec.scale}, |K|={spec.schemes[0][1]['key_size']}, "
            f"N={spec.efforts[0]})"
        ),
    )


def defense_spec(
    circuit: str,
    scale: float,
    key_size: int,
    effort: int,
    seed: int,
    time_limit_per_task: float | None,
) -> ScenarioSpec:
    """D1 as a declarative scenario grid: plain vs entangled SARLock.

    Both arms run the reference engine (the literal paper flow — the
    conditional-shrink lever only exists there) with the ``N = 0``
    baseline and the BDD-exact resistance measurements enabled.
    """
    return ScenarioSpec(
        schemes=[
            ("sarlock", {"key_size": key_size}),
            ("entangled", {"key_size": key_size, "resist_effort": effort}),
        ],
        attacks=("sat",),
        engines=("reference",),
        circuits=(circuit,),
        scale=scale,
        efforts=(effort,),
        seeds=(seed,),
        time_limit_per_task=time_limit_per_task,
        include_baseline=True,
        measure_resistance=True,
    )


def run_defense_experiment(
    circuit: str = "c1908",
    scale: float = 0.3,
    key_size: int = 5,
    effort: int = 3,
    seed: int = 1,
    time_limit_per_task: float | None = 300.0,
    runner: Runner | None = None,
) -> MatrixResult:
    """Compare plain SARLock against the entangled variant (render the
    grid with :func:`format_defense`).

    The default ``key_size`` respects the defense's rank bound
    (``|K| <= |I| - N``) so the guarantee regime is what gets shown;
    push ``key_size`` past it to watch the guarantee degrade.
    """
    return run_matrix(
        defense_spec(
            circuit=circuit,
            scale=scale,
            key_size=key_size,
            effort=effort,
            seed=seed,
            time_limit_per_task=time_limit_per_task,
        ),
        runner=runner or Runner(),
    )
