"""The scenario-matrix subsystem.

Declarative evaluation of any ``scheme x attack x engine x circuit``
grid under the multi-key premise: name registered locking schemes
(:mod:`repro.locking.registry`) and attacks
(:mod:`repro.attacks.registry`) in a :class:`ScenarioSpec`, and
:func:`run_matrix` expands the grid into content-hashed
``scenario_cell`` tasks through :mod:`repro.runner` — parallel under
``--jobs``, replayable from the result cache.

Typical use::

    from repro.runner import Runner
    from repro.scenarios import ScenarioSpec, run_matrix

    spec = ScenarioSpec(
        schemes=[("sarlock", {"key_size": 4}), "xor"],
        attacks=("sat", "appsat"),
        engines=("sharded", "reference"),
        circuits=("c432",),
        scale=0.12,
        efforts=(1,),
    )
    result = run_matrix(spec, runner=Runner(jobs=4))
    print(result.format())

The paper's table drivers (:mod:`repro.experiments.table1` /
``table2`` / ``defense``) are thin specs over this machinery.
"""

from repro.core.multikey import ENGINES
from repro.scenarios.matrix import (
    MatrixResult,
    ScenarioCell,
    run_matrix,
    scenario_cell_task,
)
from repro.scenarios.spec import ScenarioSpec, normalize_axis

__all__ = [
    "ENGINES",
    "MatrixResult",
    "ScenarioCell",
    "ScenarioSpec",
    "normalize_axis",
    "run_matrix",
    "scenario_cell_task",
]
