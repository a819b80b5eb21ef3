"""Pinned ``scenario_cell`` cache keys of the paper's table drivers.

A change to a hashed param of ``scenario_cell`` (its name, value or
shape) moves these digests and orphans every cached Table 1, Table 2
and D1 cell, so the keys each driver's spec expands to are pinned here
at small parameters, in expansion order.
"""

import pytest

from repro.experiments.defense import defense_spec
from repro.experiments.table1 import table1_spec
from repro.experiments.table2 import table2_spec
from repro.locking.lut_lock import LutModuleSpec

SPECS = {
    "table1": lambda: table1_spec(
        key_sizes=(3, 4),
        efforts=(0, 1),
        circuit="c432",
        scale=0.12,
        seed=0,
        time_limit_per_task=None,
    ),
    "table2": lambda: table2_spec(
        circuits=("c880", "c1355"),
        scale=0.2,
        spec=LutModuleSpec.tiny(),
        effort=2,
        time_limit_per_task=60.0,
        seed=1,
        verify=True,
    ),
    "defense": lambda: defense_spec(
        circuit="c1908",
        scale=0.25,
        key_size=4,
        effort=1,
        seed=1,
        time_limit_per_task=60.0,
    ),
}

GOLDEN_CELL_KEYS = {
    "table1": [
        ("scenario_cell", "bae31a9c8d209c8e43a050ca65e3cffc94fa2966a95a5d473a5832c4bb3eeb31"),
        ("scenario_cell", "c5eb81718c4c758e376ab1ed50d3d9ef39e8604ccfd5cc82955dde8d20d53060"),
        ("scenario_cell", "dd29ff00ab4c920ca59542113fc2e489b1d9b789f08b1cccee58c5f1ee7db1f7"),
        ("scenario_cell", "12bb388e3e02956242ddb9720b6b2a6ae1fe9eb03f7c92ca8ac0b364315fd1f2"),
    ],
    "table2": [
        ("scenario_cell", "a03458e8c9f8d0d729628736f18ec6f3212fc3548dd5e904b116b29429bb9965"),
        ("scenario_cell", "3fd2fe7d9fcc916efb10d8444494098fa1d6351b430e9bd20de59b8e063c05dc"),
    ],
    "defense": [
        ("scenario_cell", "db4bb712477739728cb63e08451f9efedbcd865b5290ea0a8c3c50267139e157"),
        ("scenario_cell", "29b9c489f4eeceb740ccb3aec03fb747293b105738c46535d9748c8472a5809c"),
    ],
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_driver_cells_hash_as_pinned(name, monkeypatch):
    monkeypatch.delenv("REPRO_SOLVER", raising=False)
    assert [
        (task.kind, task.cache_key) for task in SPECS[name]().expand()
    ] == GOLDEN_CELL_KEYS[name]
