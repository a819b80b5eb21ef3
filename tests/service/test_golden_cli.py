"""Parity guard: the thin-client CLI renders pre-redesign bytes.

The service redesign moved every subcommand onto request envelopes and
event streams — but the *text* a user sees must not move.  Two locks:

* ``table1`` against a checked-in golden file (the table is fully
  deterministic: SARLock #DIP depends only on key size and effort), so
  drift in either the driver or the render path fails loudly.
* ``matrix`` and the five grid experiments (Table 1, Table 2, D1, A1,
  A2) against the library driver plus its formatter through a shared
  warm cache — timings replay from stored artifacts, so the comparison
  is byte-exact.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.ablation_splitting import (
    format_splitting_ablation,
    run_splitting_ablation,
)
from repro.experiments.ablation_synthesis import (
    format_synthesis_ablation,
    run_synthesis_ablation,
)
from repro.experiments.defense import format_defense, run_defense_experiment
from repro.experiments.table2 import format_table2, run_table2
from repro.runner import ResultCache, Runner

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_TABLE1_ARGS = ["--key-sizes", "3,4", "--efforts", "0,1,2", "--scale", "0.12"]


class TestGoldenTable1:
    def test_cli_matches_checked_in_golden(self, capsys):
        assert main(["table1", *_TABLE1_ARGS, "--no-cache", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "table1_small.txt").read_text()

    def test_cli_matches_library_driver(self, capsys, tmp_path):
        from repro.experiments.table1 import format_table1, run_table1

        cache_dir = tmp_path / "shared-cache"
        expected = (
            format_table1(
                run_table1(
                    key_sizes=(3, 4),
                    efforts=(0, 1, 2),
                    scale=0.12,
                    runner=Runner(cache=ResultCache(cache_dir)),
                )
            )
            + "\n"
        )
        assert main(
            ["table1", *_TABLE1_ARGS, "--cache-dir", str(cache_dir), "--quiet"]
        ) == 0
        assert capsys.readouterr().out == expected


#: CLI arguments, and the driver call plus formatter they must equal.
_EXPERIMENT_CASES = {
    "table2": (
        ["table2", "--circuits", "c880", "--scale", "0.2", "--spec", "tiny",
         "--time-limit", "60", "--sequential"],
        run_table2,
        dict(circuits=("c880",), scale=0.2, spec="tiny",
             time_limit_per_task=60.0, parallel=False),
        format_table2,
    ),
    "defense": (
        ["defense", "--circuit", "c1908", "--scale", "0.25", "--key-size",
         "4", "-N", "1", "--time-limit", "60"],
        run_defense_experiment,
        dict(circuit="c1908", scale=0.25, key_size=4, effort=1,
             time_limit_per_task=60.0),
        format_defense,
    ),
    "ablation_splitting": (
        ["ablation", "splitting", "--scale", "0.12"],
        run_splitting_ablation,
        dict(scale=0.12),
        format_splitting_ablation,
    ),
    "ablation_synthesis": (
        ["ablation", "synthesis", "--scale", "0.12"],
        run_synthesis_ablation,
        dict(scale=0.12),
        format_synthesis_ablation,
    ),
}


class TestGoldenExperiments:
    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENT_CASES))
    def test_cli_matches_library_driver(self, experiment, capsys, tmp_path):
        args, driver, kwargs, render = _EXPERIMENT_CASES[experiment]
        cache_dir = tmp_path / "shared-cache"
        result = driver(runner=Runner(cache=ResultCache(cache_dir)), **kwargs)
        expected = render(result) + "\n"
        assert main([*args, "--cache-dir", str(cache_dir), "--quiet"]) == 0
        assert capsys.readouterr().out == expected


class TestGoldenMatrix:
    def test_cli_matches_library_driver_byte_for_byte(self, capsys, tmp_path):
        from repro.scenarios import ScenarioSpec, run_matrix

        cache_dir = tmp_path / "shared-cache"
        spec = ScenarioSpec(
            schemes=[
                ("sarlock", {"key_size": 3}),
                ("xor", {"key_size": 3}),
            ],
            attacks=("sat",),
            engines=("sharded", "reference"),
            circuits=("c432",),
            scale=0.12,
            efforts=(1,),
        )
        # Pre-redesign rendering: print(run_matrix(...).format()).
        expected = (
            run_matrix(spec, runner=Runner(cache=ResultCache(cache_dir))).format()
            + "\n"
        )
        assert main([
            "matrix", "--schemes", "sarlock,xor", "--attacks", "sat",
            "--engines", "sharded,reference", "--circuits", "c432",
            "--scale", "0.12", "--key-size", "3", "--efforts", "1",
            "--cache-dir", str(cache_dir), "--quiet",
        ]) == 0
        # Warm cache: every timing column replays from the stored
        # artifact, so the whole table is byte-identical.
        assert capsys.readouterr().out == expected

    def test_progress_lines_match_classic_renderer(self, capsys, tmp_path):
        """Streamed cell_done events render the classic progress line."""
        from repro.runner import print_progress
        from repro.scenarios import ScenarioSpec, run_matrix

        cache_dir = tmp_path / "shared-cache"
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 3})],
            circuits=("c432",),
            scale=0.12,
            efforts=(1,),
        )
        run_matrix(spec, runner=Runner(cache=ResultCache(cache_dir)))
        capsys.readouterr()

        # Classic path: Runner(progress=print_progress) on a warm cache.
        assert main([
            "matrix", "--schemes", "sarlock", "--attacks", "sat",
            "--circuits", "c432", "--scale", "0.12", "--key-size", "3",
            "--efforts", "1", "--cache-dir", str(cache_dir),
        ]) == 0
        service_err = capsys.readouterr().err
        run_matrix(
            spec,
            runner=Runner(cache=ResultCache(cache_dir), progress=print_progress),
        )
        classic_err = capsys.readouterr().err
        assert service_err == classic_err
        assert "cached" in service_err
