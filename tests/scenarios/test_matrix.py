"""Scenario-matrix tests: spec expansion, cell evaluation, parity.

Covers the PR-4 acceptance criteria: multi-key AppSAT recovers
sub-space keys on SARLock and LUT-lock (seeded parity against the
exact attack), a matrix-spec rerun of Table 1 reproduces the classic
driver's rows byte-for-byte, and Anti-SAT — shipped but previously
unexercised by any multi-key test — is attacked through
``multikey_attack`` as a tier-1 scenario.
"""

import json
import pickle

import pytest

from repro.attacks.brute_force import brute_force_keys
from repro.circuit.random_circuits import random_netlist
from repro.core.compose import verify_composition
from repro.core.multikey import multikey_attack
from repro.experiments.report import format_table
from repro.experiments.table1 import format_table1, run_table1
from repro.locking import lock_circuit
from repro.locking.sarlock import sarlock_lock
from repro.oracle.oracle import Oracle
from repro.runner import ResultCache, Runner, canonical_json
from repro.scenarios import ScenarioSpec, normalize_axis, run_matrix

#: Strict AppSAT settings: converge exactly before ever settling, so
#: seeded runs are deterministic and parity-comparable with "sat".
STRICT_APPSAT = {
    "dips_per_round": 64,
    "error_threshold": 0.0,
    "settle_rounds": 99,
}


class TestScenarioSpec:
    def test_axis_normalization_forms(self):
        assert normalize_axis("sarlock") == ("sarlock", {})
        assert normalize_axis(("sarlock", {"key_size": 8})) == (
            "sarlock",
            {"key_size": 8},
        )
        assert normalize_axis({"name": "sarlock", "key_size": 8}) == (
            "sarlock",
            {"key_size": 8},
        )
        with pytest.raises(ValueError, match="name"):
            normalize_axis({"key_size": 8})

    def test_expand_size_and_order(self):
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 3}), "xor"],
            attacks=("sat", "appsat"),
            engines=("sharded", "reference"),
            circuits=("c432", "c880"),
            efforts=(0, 1),
            seeds=(0,),
        )
        tasks = spec.expand()
        # sat keeps both engines; appsat (no shard_fn) collapses to one
        # reference cell per grid point instead of running twice.
        assert spec.size == len(tasks) == 2 * (2 + 1) * 2 * 2
        # scheme-major, effort inner: the classic table drivers' order.
        assert tasks[0].params["scheme"] == "sarlock"
        assert tasks[0].params["effort"] == 0
        assert tasks[1].params["effort"] == 1
        assert tasks[-1].params["scheme"] == "xor"

    def test_engine_axis_collapses_for_non_shardable_attacks(self):
        spec = ScenarioSpec(
            schemes=["sarlock"],
            attacks=("appsat", "brute_force"),
            engines=("sharded", "reference"),
        )
        assert spec.effective_engines("sat") == ["sharded", "reference"]
        assert spec.effective_engines("appsat") == ["reference"]
        engines = [task.params["engine"] for task in spec.expand()]
        assert engines == ["reference", "reference"]

    def test_unknown_scheme_rejected_with_roster(self):
        with pytest.raises(ValueError) as err:
            ScenarioSpec(schemes=["nope"])
        assert "sarlock" in str(err.value)

    def test_unknown_attack_rejected_with_roster(self):
        with pytest.raises(ValueError) as err:
            ScenarioSpec(schemes=["sarlock"], attacks=("nope",))
        assert "appsat" in str(err.value)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="sharded"):
            ScenarioSpec(schemes=["sarlock"], engines=("warp",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioSpec(schemes=["sarlock"], efforts=())

    def test_selection_and_synthesis_axes_expand(self):
        spec = ScenarioSpec(
            schemes=["sarlock"],
            engines=("sharded", "reference"),
            selections=("fanout", "random"),
            synthesis=(True, False),
            efforts=(1, 2),
        )
        tasks = spec.expand()
        # sharded: 2 selections x 1 synthesis; reference: 2 x 2.
        assert spec.size == len(tasks) == (2 + 4) * 2
        keys = [task.cache_key for task in tasks]
        assert len(set(keys)) == len(keys)
        assert not any(
            task.params["engine"] == "sharded"
            and task.params.get("run_synthesis") is False
            for task in tasks
        )
        clone = ScenarioSpec.from_payload(spec.describe())
        assert [task.cache_key for task in clone.expand()] == keys

    def test_unknown_selection_rejected_with_roster(self):
        with pytest.raises(ValueError, match="fanout"):
            ScenarioSpec(schemes=["sarlock"], selections=("nope",))

    def test_cell_params_pickle_roundtrip(self):
        """Matrix cells must survive the process-pool boundary intact."""
        spec = ScenarioSpec(
            schemes=[("lut", {"spec": "tiny"})],
            attacks=[("appsat", STRICT_APPSAT)],
            circuits=("c880",),
            efforts=(2,),
            time_limit_per_task=60.0,
        )
        for task in spec.expand():
            clone = pickle.loads(pickle.dumps(task))
            assert clone.params == task.params
            assert clone.cache_key == task.cache_key
            # Params must stay canonical-JSON-able (the cache contract).
            assert canonical_json(clone.params) == canonical_json(task.params)


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def small_matrix(self):
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 3}), ("xor", {"key_size": 3})],
            attacks=("sat", "appsat"),
            engines=("sharded", "reference"),
            circuits=("c432",),
            scale=0.12,
            efforts=(1,),
            verify_composition=True,
        )
        return spec, run_matrix(spec)

    def test_grid_covers_every_cell(self, small_matrix):
        spec, result = small_matrix
        # sat runs on both engines, appsat on its single collapsed
        # reference cell: 2 schemes x (2 + 1).
        assert len(result.cells) == spec.size == 6
        assert all(cell.status == "ok" for cell in result.cells)
        assert all(cell.composition_equivalent for cell in result.cells)

    def test_engines_resolved_per_attack(self, small_matrix):
        _, result = small_matrix
        sharded_sat = result.cell(attack="sat", engine="sharded", scheme="sarlock")
        assert sharded_sat.engine_used == "sharded"
        appsat_cells = result.select(attack="appsat", scheme="sarlock")
        assert len(appsat_cells) == 1
        assert appsat_cells[0].engine == appsat_cells[0].engine_used == "reference"

    def test_engines_agree_on_dips(self, small_matrix):
        """SARLock #DIP is deterministic: engines must agree per cell."""
        _, result = small_matrix
        sharded = result.cell(attack="sat", engine="sharded", scheme="sarlock")
        reference = result.cell(attack="sat", engine="reference", scheme="sarlock")
        assert sharded.dips_per_task == reference.dips_per_task

    def test_format_lists_cells(self, small_matrix):
        _, result = small_matrix
        text = result.format()
        assert "Scenario matrix: 6 cells" in text
        for token in ("sarlock", "xor", "sat", "appsat", "pass"):
            assert token in text

    def test_csv_and_json_exports(self, small_matrix):
        import csv as csv_mod
        import io
        import json

        _, result = small_matrix
        rows = list(csv_mod.reader(io.StringIO(result.to_csv())))
        assert rows[0][0] == "scheme"
        assert len(rows) == 1 + len(result.cells)
        payload = json.loads(result.to_json())
        assert payload["spec"]["size"] == 6
        assert len(payload["cells"]) == 6
        assert payload["cells"][0]["status"] == "ok"

    def test_cache_replay_is_lossless(self, tmp_path):
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 3})],
            attacks=("sat",),
            circuits=("c432",),
            scale=0.12,
            efforts=(0, 1),
        )
        cold = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        warm = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        assert warm.cells == cold.cells
        assert warm.format() == cold.format()

    def test_cells_cached_without_subtask_fields_replay_unchanged(
        self, tmp_path
    ):
        """A cell cached before ``splitting_inputs``, ``exact`` and
        ``subtask_stats`` existed replays with ``None`` for them, and
        the matrix text and CSV do not change."""
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 3})],
            attacks=("sat",),
            circuits=("c432",),
            scale=0.12,
            efforts=(0, 1),
            verify_composition=True,
        )
        added = ("splitting_inputs", "exact", "subtask_stats")
        cold = run_matrix(spec, runner=Runner(cache=ResultCache(tmp_path)))
        assert all(
            getattr(cell, name) is not None
            for cell in cold.cells for name in added
        )
        paths = sorted((tmp_path / "scenario_cell").glob("*.json"))
        for path in paths:
            entry = json.loads(path.read_text())
            for name in added:
                del entry["artifact"][name]
            path.write_text(json.dumps(entry))
        warm_cache = ResultCache(tmp_path)
        warm = run_matrix(spec, runner=Runner(cache=warm_cache))
        assert warm_cache.misses == 0 and len(paths) == len(warm.cells) == 2
        assert all(
            getattr(cell, name) is None
            for cell in warm.cells for name in added
        )
        assert warm.format() == cold.format()
        assert warm.to_csv() == cold.to_csv()

    def test_select_and_cell_filters(self, small_matrix):
        _, result = small_matrix
        assert len(result.select(scheme="sarlock")) == 3
        with pytest.raises(KeyError):
            result.cell(scheme="sarlock")  # ambiguous: 3 matches


class TestMultiKeyAppSat:
    """Acceptance: multi-key AppSAT recovers sub-space keys."""

    def test_sarlock_subspace_keys_with_parity(self):
        original = random_netlist(7, 45, seed=29)
        locked = sarlock_lock(original, 4, seed=3)
        appsat = multikey_attack(
            locked,
            original,
            effort=2,
            attack="appsat",
            attack_params=STRICT_APPSAT,
        )
        exact = multikey_attack(locked, original, effort=2)
        assert appsat.status == "ok"
        assert appsat.attack == "appsat"
        # Seeded parity: strict AppSAT converges through the same
        # deterministic DIP loop, so keys and #DIP match the exact
        # attack bit-for-bit.
        assert appsat.key_ints == exact.key_ints
        assert appsat.dips_per_task == exact.dips_per_task
        for task in appsat.subtasks:
            good = brute_force_keys(
                locked, Oracle(original), pin=task.assignment
            )
            assert task.key_int in good

    def test_lut_lock_subspace_keys_with_parity(self):
        original = random_netlist(8, 60, seed=31)
        locked = lock_circuit("lut", original, spec="tiny", seed=2)
        appsat = multikey_attack(
            locked,
            original,
            effort=2,
            attack="appsat",
            attack_params=STRICT_APPSAT,
        )
        exact = multikey_attack(locked, original, effort=2)
        assert appsat.status == "ok"
        assert appsat.key_ints == exact.key_ints
        assert verify_composition(
            locked, appsat.splitting_inputs, appsat.keys, original
        ).equivalent

    def test_settled_subtasks_count_as_success(self):
        """Loose AppSAT settles on SARLock (the known weakness) and the
        multi-key result reports ok — settling is AppSAT succeeding on
        its own terms."""
        original = random_netlist(7, 45, seed=29)
        locked = sarlock_lock(original, 4, seed=3)
        result = multikey_attack(
            locked,
            original,
            effort=1,
            attack="appsat",
            attack_params={
                "dips_per_round": 1,
                "queries_per_checkpoint": 16,
                "error_threshold": 0.5,
                "settle_rounds": 1,
            },
        )
        assert result.status == "ok"
        assert all(
            task.status in ("ok", "settled") for task in result.subtasks
        )

    def test_settled_cells_skip_cec(self):
        """CEC is an exact-key property: a verify-enabled cell whose
        AppSAT settled must report composition_equivalent=None (not a
        failure), keeping survey exit codes green."""
        spec = ScenarioSpec(
            schemes=[("sarlock", {"key_size": 4})],
            attacks=[
                (
                    "appsat",
                    {
                        "dips_per_round": 1,
                        "queries_per_checkpoint": 16,
                        "error_threshold": 0.5,
                        "settle_rounds": 1,
                    },
                )
            ],
            circuits=("c432",),
            scale=0.12,
            efforts=(1,),
            verify_composition=True,
        )
        result = run_matrix(spec)
        cell = result.cells[0]
        assert cell.status == "ok"
        assert cell.composition_equivalent is None


class TestAntisatMultiKey:
    """Anti-SAT ships in the repo; attack it through multikey_attack."""

    @pytest.fixture
    def setup(self):
        original = random_netlist(6, 35, seed=17)
        locked = lock_circuit("antisat", original, key_size=4, seed=5)
        return original, locked

    @pytest.mark.parametrize("engine", ["reference", "sharded"])
    def test_each_key_unlocks_its_subspace(self, setup, engine):
        original, locked = setup
        result = multikey_attack(locked, original, effort=2, engine=engine)
        assert result.status == "ok"
        assert len(result.subtasks) == 4
        for task in result.subtasks:
            good = brute_force_keys(
                locked, Oracle(original), pin=task.assignment
            )
            assert task.key_int in good

    def test_composition_equivalent(self, setup):
        original, locked = setup
        result = multikey_attack(locked, original, effort=2)
        assert verify_composition(
            locked, result.splitting_inputs, result.keys, original
        ).equivalent

    def test_antisat_matrix_cell(self, setup):
        spec = ScenarioSpec(
            schemes=[("antisat", {"key_size": 4})],
            attacks=("sat",),
            engines=("sharded",),
            circuits=("c432",),
            scale=0.12,
            efforts=(1,),
            verify_composition=True,
        )
        result = run_matrix(spec)
        cell = result.cells[0]
        assert cell.status == "ok"
        assert cell.key_size == 4
        assert cell.composition_equivalent is True


class TestTable1MatrixParity:
    """Acceptance: the matrix-backed Table 1 reproduces the classic
    driver's rows byte-for-byte."""

    def test_byte_for_byte_against_direct_driver(self):
        key_sizes, efforts = (3, 4), (0, 1, 2)
        circuit, scale, seed = "c432", 0.12, 0

        via_matrix = run_table1(
            key_sizes=key_sizes,
            efforts=efforts,
            circuit=circuit,
            scale=scale,
            seed=seed,
        )

        # The classic driver's semantics, inlined: lock per key size,
        # one multikey attack per (|K|, N) cell, same engine default.
        from repro.bench_circuits.iscas85 import iscas85_like

        direct = []
        for key_size in key_sizes:
            for effort in efforts:
                original = iscas85_like(circuit, scale)
                locked = sarlock_lock(original, key_size, seed=seed)
                attack = multikey_attack(
                    locked,
                    original,
                    effort=effort,
                    seed=seed,
                    engine="sharded",
                )
                dips = attack.dips_per_task
                direct.append(
                    (
                        key_size,
                        effort,
                        dips,
                        len(set(dips)) == 1,
                        max(dips) if dips else 0,
                        attack.status,
                    )
                )

        # The classic table layout, rendered from the direct cells.
        by_entry = {(k, n): (uniform, most) for k, n, _, uniform, most, _ in direct}
        expected = format_table(
            ["|K|"] + [f"N={n}" + (" (baseline)" if n == 0 else "") for n in efforts],
            [
                [k] + [
                    f"{by_entry[k, n][1]}{'' if by_entry[k, n][0] else '*'}"
                    for n in efforts
                ]
                for k in key_sizes
            ],
            title=(
                f"Table 1: #DIP for SARLock-locked {circuit} (scale={scale}) "
                "(#DIP of the parallel tasks; * = tasks disagreed)"
            ),
        )
        assert format_table1(via_matrix) == expected
        assert [
            (c.key_size, c.effort, c.dips_per_task, c.uniform, c.max_dips, c.status)
            for c in via_matrix.cells
        ] == direct


class TestTable2MatrixParity:
    """The matrix-backed Table 2 matches the direct driver semantics on
    every deterministic column (timing columns are measurements and
    cannot be byte-compared across runs)."""

    def test_deterministic_fields_against_direct_driver(self):
        from repro.bench_circuits.iscas85 import iscas85_like
        from repro.experiments.table2 import run_table2
        from repro.locking.lut_lock import LutModuleSpec, lut_lock

        circuits, scale, effort, seed = ("c880", "c1355"), 0.2, 2, 1
        spec = LutModuleSpec.tiny()

        via_matrix = run_table2(
            circuits=circuits,
            scale=scale,
            spec=spec,
            effort=effort,
            parallel=False,
            time_limit_per_task=60.0,
            seed=seed,
        )

        direct = []
        for circuit in circuits:
            original = iscas85_like(circuit, scale)
            locked = lut_lock(original, spec, seed=seed)
            baseline = multikey_attack(
                locked, original, effort=0,
                time_limit_per_task=60.0, seed=seed,
            )
            attack = multikey_attack(
                locked, original, effort=effort,
                time_limit_per_task=60.0, seed=seed, engine="sharded",
            )
            direct.append(
                (
                    circuit,
                    baseline.status,
                    baseline.total_dips,
                    attack.status,
                    attack.dips_per_task,
                    bool(
                        verify_composition(
                            locked,
                            attack.splitting_inputs,
                            attack.keys,
                            original,
                        )
                    ),
                )
            )

        assert [
            (
                cell.circuit,
                cell.baseline_status,
                cell.baseline_dips,
                cell.status,
                cell.dips_per_task,
                cell.composition_equivalent,
            )
            for cell in via_matrix.cells
        ] == direct
