"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("figure1", "table1", "table2", "attack", "bench",
                    "ablation", "defense", "cache", "matrix"):
            assert cmd in text

    def test_runner_flags_on_experiment_commands(self):
        parser = build_parser()
        for cmd in ("figure1", "table1", "table2", "ablation", "defense"):
            args = parser.parse_args(
                [cmd] + (["both"] if cmd == "ablation" else [])
                + ["--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
            )
            assert args.jobs == 4
            assert args.cache_dir == "/tmp/x"
            assert args.no_cache

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("cmd", ["attack", "table1", "table2"])
    def test_engine_choices_match_the_engine_roster(self, cmd):
        # The CLI spells the roster out so startup need not import
        # repro.core.multikey; this keeps the two from drifting apart.
        from repro.core.multikey import ENGINES

        subparsers = build_parser()._subparsers._group_actions[0]
        (engine,) = [
            action for action in subparsers.choices[cmd]._actions
            if "--engine" in action.option_strings
        ]
        assert tuple(engine.choices) == ENGINES


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1(a)" in out
        assert "equivalent = True" in out

    def test_table1_small(self, capsys):
        assert main([
            "table1", "--key-sizes", "3", "--efforts", "0,1",
            "--scale", "0.12",
        ]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_bench_emission(self, capsys, tmp_path):
        assert main(["bench", "--circuit", "c432", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "INPUT(" in out
        path = tmp_path / "x.bench"
        assert main([
            "bench", "--circuit", "c432", "--scale", "0.3", "--out", str(path)
        ]) == 0
        assert path.exists()

    def test_table1_warm_cache_is_identical(self, capsys, tmp_path):
        argv = [
            "table1", "--key-sizes", "3", "--efforts", "0,1",
            "--scale", "0.12", "--cache-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert (tmp_path / "scenario_cell").is_dir()

    def test_defense_runs(self, capsys):
        assert main([
            "defense", "--circuit", "c1908", "--scale", "0.25",
            "--key-size", "4", "-N", "1", "--time-limit", "60",
            "--no-cache", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "D1" in out and "entangled" in out

    def test_cache_info_and_clear(self, capsys, tmp_path):
        assert main([
            "figure1", "--cache-dir", str(tmp_path), "--quiet"
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "figure1: 1 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out

    def test_cache_dir_naming_a_file_is_a_clean_error(self, tmp_path):
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("x")
        with pytest.raises(SystemExit, match="not a directory"):
            main(["figure1", "--cache-dir", str(not_a_dir), "--quiet"])

    def test_matrix_list_rosters(self, capsys):
        assert main(["matrix", "--list-schemes", "--list-attacks"]) == 0
        out = capsys.readouterr().out
        for name in ("sarlock", "xor", "lut", "antisat", "entangled"):
            assert name in out
        for name in ("sat", "appsat", "brute_force"):
            assert name in out
        assert "[shared-encoding]" in out

    def test_matrix_small_grid_with_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "matrix.csv"
        json_path = tmp_path / "matrix.json"
        assert main([
            "matrix", "--schemes", "sarlock,xor", "--attacks", "sat",
            "--engines", "sharded,reference", "--circuits", "c432",
            "--scale", "0.12", "--key-size", "3", "--efforts", "1",
            "--no-cache", "--quiet",
            "--csv", str(csv_path), "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Scenario matrix: 4 cells" in out
        assert csv_path.read_text().startswith("scheme,")
        import json

        payload = json.loads(json_path.read_text())
        assert len(payload["cells"]) == 4

    def test_matrix_unknown_scheme_is_clean_error(self):
        with pytest.raises(SystemExit, match="unknown locking scheme"):
            main(["matrix", "--schemes", "nope", "--no-cache", "--quiet"])

    def test_matrix_exits_nonzero_on_failed_cells(self, capsys):
        # A 1-DIP budget cannot finish the attack: cells go partial and
        # the exit code must say so (CI smoke relies on this).
        assert main([
            "matrix", "--schemes", "sarlock", "--attacks", "sat",
            "--circuits", "c432", "--scale", "0.12", "--key-size", "4",
            "--efforts", "1", "--max-dips", "1", "--no-cache", "--quiet",
        ]) == 1
        assert "partial" in capsys.readouterr().out

    def test_matrix_scheme_param_error_is_clean(self):
        # LockingError surfaces from the cell worker, not spec
        # validation: an odd antisat key has no ka‖kb split.
        with pytest.raises(SystemExit, match="even"):
            main([
                "matrix", "--schemes", "antisat", "--key-size", "3",
                "--circuits", "c432", "--scale", "0.12", "--efforts", "1",
                "--no-cache", "--quiet",
            ])

    def test_attack_scheme_errors_are_clean(self):
        with pytest.raises(SystemExit, match="unknown locking scheme"):
            main(["attack", "--scheme", "nope", "--scale", "0.12"])
        with pytest.raises(SystemExit, match="even"):
            main([
                "attack", "--scheme", "antisat", "--key-size", "3",
                "--circuit", "c432", "--scale", "0.12",
            ])

    def test_attack_sarlock(self, capsys):
        code = main([
            "attack", "--circuit", "c1908", "--scheme", "sarlock",
            "--key-size", "4", "-N", "1", "--scale", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "composition equivalent: True" in out


class TestServiceSurface:
    """The thin-client redesign: envelopes in, rendered events out."""

    def test_serve_subcommand_registered(self):
        parser = build_parser()
        assert "serve" in parser.format_help()
        args = parser.parse_args(["serve", "--port", "0", "--jobs", "2"])
        assert args.port == 0 and args.jobs == 2

    def test_attack_takes_runner_flags(self):
        # The pre-service CLI built an ad-hoc Runner inside _cmd_attack
        # that ignored --jobs/--cache-dir; attack now shares the
        # standard runner flag group.
        args = build_parser().parse_args(
            ["attack", "--jobs", "3", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 3
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache

    def test_envelope_output_is_a_response_envelope(self, capsys):
        from repro.service import from_json

        assert main(["figure1", "--no-cache", "--quiet", "--json"]) == 0
        response = from_json(capsys.readouterr().out)
        assert response.status == "ok"
        assert response.request_kind == "experiment"
        assert response.result["experiment"] == "figure1"

    def test_bench_envelope_output(self, capsys):
        assert main([
            "bench", "--circuit", "c432", "--scale", "0.3", "--envelope",
        ]) == 0
        from repro.service import from_json

        response = from_json(capsys.readouterr().out)
        assert "INPUT(" in response.result["text"]

    def test_attack_exit_code_nonzero_on_partial(self, capsys):
        # A 1-second-free budget cannot exist, but a tiny max-dips
        # equivalent is the time-limit zero: the attack goes partial
        # and the exit code says so.
        code = main([
            "attack", "--circuit", "c432", "--scheme", "sarlock",
            "--key-size", "4", "-N", "1", "--scale", "0.12",
            "--time-limit", "0.0", "--no-cache", "--quiet",
        ])
        assert code == 1
        assert "status=partial" in capsys.readouterr().out

    def test_attack_exit_code_nonzero_on_failed_cec(
        self, capsys, monkeypatch
    ):
        # Every sub-attack succeeds; only the composition CEC fails.
        monkeypatch.setattr(
            "repro.scenarios.matrix.verify_composition",
            lambda *args, **kwargs: False,
        )
        code = main([
            "attack", "--circuit", "c1908", "--scheme", "sarlock",
            "--key-size", "4", "-N", "1", "--scale", "0.2",
            "--no-cache", "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "multi-key composition equivalent: False" in out

    def test_bench_envelope_with_out_still_writes_file(self, capsys, tmp_path):
        from repro.service import from_json

        path = tmp_path / "c432.bench"
        assert main([
            "bench", "--circuit", "c432", "--scale", "0.3",
            "--out", str(path), "--json",
        ]) == 0
        assert path.exists() and "INPUT(" in path.read_text()
        # stdout carries only the envelope (machine-clean).
        response = from_json(capsys.readouterr().out)
        assert response.status == "ok"


#: The envelopes ``attack``, ``metrics`` and ``matrix`` build from
#: their default flags for ``--scheme lut`` and ``--scheme sarlock``,
#: as ``to_json`` writes them.  ``attack`` also pins the seed in the
#: scheme params; a matrix envelope carries its resolved solver.
_CLI_ENVELOPES = [
    (
        "attack", "lut",
        '{"attack": "sat", "attack_params": {}, "circuit": "c432",'
        ' "effort": 2, "engine": "sharded", "kind": "attack",'
        ' "parallel": false, "scale": 0.25, "schema_version": 1,'
        ' "scheme": "lut", "scheme_params": {"seed": 0,'
        ' "spec": "small"}, "seed": 0, "solver": null,'
        ' "time_limit_per_task": null}',
    ),
    (
        "attack", "sarlock",
        '{"attack": "sat", "attack_params": {}, "circuit": "c432",'
        ' "effort": 2, "engine": "sharded", "kind": "attack",'
        ' "parallel": false, "scale": 0.25, "schema_version": 1,'
        ' "scheme": "sarlock", "scheme_params": {"key_size": 8,'
        ' "seed": 0}, "seed": 0, "solver": null,'
        ' "time_limit_per_task": null}',
    ),
    (
        "metrics", "lut",
        '{"circuit": "c432", "effort": 0, "key_samples": 64,'
        ' "kind": "metrics", "metrics": ["corruption", "bit_flip",'
        ' "avalanche", "subspace"], "metrics_seed": null,'
        ' "scale": 0.25, "schema_version": 1, "scheme": "lut",'
        ' "scheme_params": {"spec": "small"}, "seed": 0}',
    ),
    (
        "metrics", "sarlock",
        '{"circuit": "c432", "effort": 0, "key_samples": 64,'
        ' "kind": "metrics", "metrics": ["corruption", "bit_flip",'
        ' "avalanche", "subspace"], "metrics_seed": null,'
        ' "scale": 0.25, "schema_version": 1, "scheme": "sarlock",'
        ' "scheme_params": {"key_size": 8}, "seed": 0}',
    ),
    (
        "matrix", "lut",
        '{"attacks": [["sat", {}]], "circuits": ["c432"],'
        ' "efforts": [1], "engines": ["sharded"],'
        ' "include_baseline": false, "key_samples": 64,'
        ' "kind": "matrix", "max_dips_per_task": null,'
        ' "measure_resistance": false, "metrics": [],'
        ' "metrics_seed": null, "scale": 0.25, "schema_version": 1,'
        ' "schemes": [["lut", {"spec": "tiny"}]], "seeds": [0],'
        ' "selections": ["fanout"], "solver": "python",'
        ' "synthesis": [true], "time_limit_per_task": null,'
        ' "verify_composition": false}',
    ),
    (
        "matrix", "sarlock",
        '{"attacks": [["sat", {}]], "circuits": ["c432"],'
        ' "efforts": [1], "engines": ["sharded"],'
        ' "include_baseline": false, "key_samples": 64,'
        ' "kind": "matrix", "max_dips_per_task": null,'
        ' "measure_resistance": false, "metrics": [],'
        ' "metrics_seed": null, "scale": 0.25, "schema_version": 1,'
        ' "schemes": [["sarlock", {"key_size": 4}]], "seeds": [0],'
        ' "selections": ["fanout"], "solver": "python",'
        ' "synthesis": [true], "time_limit_per_task": null,'
        ' "verify_composition": false}',
    ),
]


class TestSchemeParams:
    """Every subcommand maps ``--scheme`` to the same width params."""

    @pytest.mark.parametrize(
        "cmd, scheme, expected", _CLI_ENVELOPES, ids=lambda v: str(v)[:8]
    )
    def test_envelope_bytes(self, cmd, scheme, expected, monkeypatch):
        import repro.cli as cli
        from repro.service import to_json

        class Built(Exception):
            pass

        def capture(args, request, inner_parallel=False):
            raise Built(to_json(request))

        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        monkeypatch.setattr(cli, "_submit", capture)
        many = cmd == "matrix"
        with pytest.raises(Built) as built:
            main([
                cmd, "--schemes" if many else "--scheme", scheme,
                "--circuits" if many else "--circuit", "c432",
            ])
        assert built.value.args[0] == expected


class TestLeverFlags:
    """``--solver`` is the one lever flag left; the others are gone."""

    def test_flags_reach_the_resolved_values(self, tmp_path, monkeypatch):
        import dataclasses
        import json

        from repro.sat import registry

        # A second backend, so --solver is visibly not the default.
        twin = dataclasses.replace(registry.solver_info("python"), name="twin")
        monkeypatch.setitem(registry._REGISTRY, "twin", twin)
        json_path = tmp_path / "cells.json"
        assert main([
            "matrix", "--schemes", "xor", "--circuits", "c432",
            "--scale", "0.12", "--key-size", "3", "--efforts", "1",
            "--metrics", "corruption", "--key-samples", "4", "--quiet",
            "--solver", "twin", "--no-cache", "--json", str(json_path),
        ]) == 0
        cells = json.loads(json_path.read_text())["cells"]
        assert cells
        assert {(cell["opt"], cell["solver"]) for cell in cells} == {
            ("full", "twin")
        }

    def test_bad_solver_exits_with_the_roster(self):
        from repro.sat.registry import registered_solvers

        with pytest.raises(SystemExit) as exit_info:
            main(["matrix", "--solver", "nope", "--no-cache", "--quiet"])
        message = str(exit_info.value.code)
        assert "unknown solver backend 'nope'" in message
        assert all(name in message for name in registered_solvers())

    def test_lanes_flag_is_gone(self, capsys):
        """The simulation backend is no longer a lever: argparse rejects
        ``--lanes`` before any work starts."""
        with pytest.raises(SystemExit) as exit_info:
            main(["matrix", "--lanes", "python", "--no-cache", "--quiet"])
        assert exit_info.value.code == 2
        assert "--lanes" in capsys.readouterr().err

    def test_opt_flag_is_gone(self, capsys):
        """Structural optimization always runs: ``matrix --opt off``
        exits with argparse's error before any work starts."""
        with pytest.raises(SystemExit) as exit_info:
            main(["matrix", "--opt", "off", "--no-cache", "--quiet"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --opt off" in capsys.readouterr().err

    def test_cache_backend_flag_is_gone(self, capsys):
        """There is one result store: ``--cache-backend`` exits with
        argparse's error, on runner subcommands and on ``cache``."""
        for argv in (
            ["matrix", "--cache-backend", "directory", "--no-cache"],
            ["cache", "info", "--cache-backend", "directory"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "--cache-backend" in capsys.readouterr().err

    def test_cache_subcommand_takes_no_lever(self):
        assert build_parser().parse_args(["cache", "info"]).action == "info"
        for flag in ("--solver", "--opt"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["cache", "info", flag, "x"])
