"""A1/A2 as scenario grids: their specs, cells and CEC verdicts."""

import json
from dataclasses import asdict

import pytest

from repro.experiments.ablation_splitting import (
    format_splitting_ablation,
    lut_ablation_spec,
    run_splitting_ablation,
)
from repro.experiments.ablation_synthesis import (
    format_synthesis_ablation,
    run_synthesis_ablation,
)
from repro.experiments.report import mean_gates
from repro.experiments.table2 import table2_spec
from repro.locking.lut_lock import LutModuleSpec
from repro.runner import ResultCache, Runner

SPEC_BUILDERS = {
    "ablation_splitting": lambda spec: lut_ablation_spec(
        "c6288", 0.12, 1, spec, 1, 60.0,
        selections=("fanout", "random", "first"),
    ),
    "ablation_synthesis": lambda spec: lut_ablation_spec(
        "c880", 0.2, 2, spec, 1, 60.0,
        synthesis=(True, False), verify_composition=True,
    ),
    "table2": lambda spec: table2_spec(
        ("c880",), 0.2, spec, 2, 60.0, 1, True
    ),
}


@pytest.mark.parametrize("driver", sorted(SPEC_BUILDERS))
def test_spec_forms_share_cache_keys(driver):
    """A preset name, its field dict and the instance hash alike."""
    tiny = LutModuleSpec.tiny()
    keys = [
        [task.cache_key for task in SPEC_BUILDERS[driver](form).expand()]
        for form in ("tiny", asdict(tiny), tiny)
    ]
    assert keys[0] == keys[1] == keys[2]


def test_a1_cells_vary_only_the_selection():
    tasks = SPEC_BUILDERS["ablation_splitting"]("tiny").expand()
    assert [task.params.get("selection", "fanout") for task in tasks] == [
        "fanout", "random", "first",
    ]
    assert {task.params["engine"] for task in tasks} == {"reference"}


def test_a2_arms_both_pass_cec():
    """The arms may recover different (equally valid) sub-space keys,
    so each arm's composition is proved equivalent on its own."""
    result = run_synthesis_ablation(
        circuit="c880",
        scale=0.25,
        effort=2,
        spec="tiny",
        time_limit_per_task=60.0,
    )
    on, off = result.cells
    assert on.synthesis and not off.synthesis
    assert on.composition_equivalent is off.composition_equivalent is True
    text = format_synthesis_ablation(result)
    assert "CEC" in text and "pass" in text


def _strip_gates_after(cache: ResultCache) -> int:
    """Rewrite every cached ``scenario_cell`` as a cell recorded before
    it carried ``gates_after``; returns how many were rewritten."""
    paths = sorted((cache.root / "scenario_cell").glob("*.json"))
    for path in paths:
        entry = json.loads(path.read_text())
        del entry["artifact"]["gates_after"]
        path.write_text(json.dumps(entry))
    return len(paths)


#: Each ablation driver at its smallest, and its table renderer.
ABLATIONS = {
    "ablation_splitting": (
        lambda runner: run_splitting_ablation(
            circuit="c6288", scale=0.12, effort=1, spec="tiny",
            strategies=("fanout", "first"), time_limit_per_task=60.0,
            runner=runner,
        ),
        format_splitting_ablation,
    ),
    "ablation_synthesis": (
        lambda runner: run_synthesis_ablation(
            circuit="c880", scale=0.2, effort=1, spec="tiny",
            time_limit_per_task=60.0, runner=runner,
        ),
        format_synthesis_ablation,
    ),
}


@pytest.mark.parametrize("driver", sorted(ABLATIONS))
def test_cells_cached_without_gates_after_render_a_dash(driver, tmp_path):
    """A cell cached before ``gates_after`` existed replays with its
    gates column missing (``-``) instead of raising."""
    run, render = ABLATIONS[driver]
    cache = ResultCache(tmp_path)
    cold = run(Runner(cache=cache))
    assert _strip_gates_after(cache) == len(cold.cells) == 2
    warm_cache = ResultCache(tmp_path)
    warm = run(Runner(cache=warm_cache))
    assert warm_cache.misses == 0
    assert [mean_gates(cell.gates_after) for cell in warm.cells] == [None, None]
    body = render(warm).splitlines()[-2:]
    assert all(line.split(" | ")[1].strip() == "-" for line in body)
