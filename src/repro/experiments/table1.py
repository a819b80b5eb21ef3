"""Table 1: #DIP for SARLock-locked c7552 under splitting effort N.

The paper's flow checker: SARLock's #DIP is deterministic
(one DIP per wrong key in the reachable sub-space), so the expected
shape is ``#DIP ~ 2^|K| - 1`` at ``N = 0``, roughly halving per unit of
``N``, with *identical* #DIP across the ``2^N`` parallel tasks.

The grid is a thin :class:`~repro.scenarios.spec.ScenarioSpec` over
the scenario matrix: every ``(key size, effort)`` entry is one
``scenario_cell`` task submitted through :mod:`repro.runner`, so the
grid fans out across cores and warm re-runs come straight from the
result cache.
"""

from __future__ import annotations

from repro.experiments.report import format_table
from repro.runner import Runner
from repro.scenarios.matrix import MatrixResult, run_matrix
from repro.scenarios.spec import ScenarioSpec


def format_table1(matrix: MatrixResult) -> str:
    """Table 1's text: one row per key size, one column per effort.

    The title and axes come from ``matrix.spec``, so a partial grid (a
    cancelled run) still renders; an entry it lacks prints ``-``.
    """
    spec = matrix.spec
    by_entry = {(cell.key_size, cell.effort): cell for cell in matrix.cells}
    headers = ["|K|"] + [
        f"N={n}" + (" (baseline)" if n == 0 else "") for n in spec.efforts
    ]
    rows = []
    for _, params in spec.schemes:
        k = params["key_size"]
        row: list[object] = [k]
        for n in spec.efforts:
            cell = by_entry.get((k, n))
            if cell is None:
                row.append("-")
            else:
                mark = "" if cell.uniform else "*"
                row.append(f"{cell.max_dips}{mark}")
        rows.append(row)
    note = "(#DIP of the parallel tasks; * = tasks disagreed)"
    title = (
        f"Table 1: #DIP for SARLock-locked {spec.circuits[0]} "
        f"(scale={spec.scale}) {note}"
    )
    return format_table(headers, rows, title=title)


def table1_spec(
    key_sizes: tuple[int, ...],
    efforts: tuple[int, ...],
    circuit: str,
    scale: float,
    seed: int,
    time_limit_per_task: float | None,
    engine: str = "sharded",
) -> ScenarioSpec:
    """Table 1 as a declarative scenario grid.

    One SARLock scheme axis entry per key size, the exact SAT attack,
    one engine — the matrix's expansion order (scheme-major, effort
    inner) reproduces the classic driver's row order exactly.
    """
    return ScenarioSpec(
        schemes=[("sarlock", {"key_size": k}) for k in key_sizes],
        attacks=("sat",),
        engines=(engine,),
        circuits=(circuit,),
        scale=scale,
        efforts=tuple(efforts),
        seeds=(seed,),
        time_limit_per_task=time_limit_per_task,
    )


def run_table1(
    key_sizes: tuple[int, ...] = (4, 8, 12),
    efforts: tuple[int, ...] = (0, 1, 2, 3, 4),
    circuit: str = "c7552",
    scale: float = 0.25,
    seed: int = 0,
    time_limit_per_task: float | None = None,
    parallel: bool = False,
    runner: Runner | None = None,
    engine: str = "sharded",
) -> MatrixResult:
    """Regenerate Table 1 (render it with :func:`format_table1`).

    The paper uses the full-size c7552; ``scale`` shrinks the carrier
    circuit, which does not change SARLock's #DIP (it depends only on
    the key size and the splitting effort) but keeps pure-Python
    runtimes reasonable.

    ``engine`` selects the multi-key implementation: the default
    ``"sharded"`` engine shares one miter encoding across all
    sub-spaces; ``"reference"`` is the literal per-sub-space Algorithm
    1 arm (both report the same #DIP grid).
    """
    return run_matrix(
        table1_spec(
            key_sizes=key_sizes,
            efforts=efforts,
            circuit=circuit,
            scale=scale,
            seed=seed,
            time_limit_per_task=time_limit_per_task,
            engine=engine,
        ),
        runner=runner or Runner(),
        inner_parallel=parallel,
    )
