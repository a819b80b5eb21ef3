"""Lane-backend tests: parity, resolution, chunking, degradation.

The lane contract is that ``lanes`` never changes a result, only
wall-clock: the numpy :class:`LaneProgram` is property-tested
bit-for-bit against the big-int path and the independent dict-walk
reference over random circuits (n-ary gates, MUX and CONST included),
and the resolution lever is tested for silent ``auto`` degradation vs
loud explicit-``numpy`` failure when numpy is missing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.circuit import lanes as lanes_mod
from repro.circuit.gates import GateType
from repro.circuit.lanes import (
    AUTO_MAX_LANES,
    AUTO_MIN_GATES,
    AUTO_MIN_STAGE_OPS,
    LaneProgram,
    available_lane_backends,
    default_lanes,
    numpy_available,
    preferred_chunk_lanes,
    resolve_lanes,
)
from repro.circuit.netlist import Netlist
from repro.circuit.random_circuits import random_netlist
from repro.circuit.simulator import (
    random_patterns,
    simulate_reference,
)
from repro.oracle.oracle import Oracle

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy lane backend not installed"
)


@pytest.fixture(autouse=True)
def _clean_lever(monkeypatch):
    """Each test sees the stock lever: no REPRO_LANES."""
    monkeypatch.delenv("REPRO_LANES", raising=False)


def _hide_numpy(monkeypatch):
    monkeypatch.setattr(lanes_mod, "_numpy", None)
    monkeypatch.setattr(lanes_mod, "_numpy_probed", True)


def _nary_mux_netlist() -> Netlist:
    """Hand-built circuit hitting every kernel the binarizer emits."""
    netlist = Netlist("kernels")
    a, b, c, d, e = netlist.add_inputs(list("abcde"))
    netlist.add_gate("n1", GateType.NAND, [a, b, c, d, e])
    netlist.add_gate("n2", GateType.XNOR, [a, b, c, d, e])
    netlist.add_gate("n3", GateType.NOR, [c, d, e])
    netlist.add_gate("n4", GateType.MUX, [a, "n1", "n2"])
    netlist.add_gate("n5", GateType.CONST1, [])
    netlist.add_gate("n6", GateType.BUF, ["n4"])
    netlist.add_gate("n7", GateType.XOR, ["n6", "n5", "n3"])
    netlist.add_gate("n8", GateType.NOT, ["n7"])
    netlist.set_outputs(["n8", "n4", "n3"])
    netlist.validate()
    return netlist


@needs_numpy
class TestLaneProgramParity:
    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from([1, 63, 64, 65, 129, 700]),
        allow_const=st.booleans(),
    )
    def test_eval_words_three_way(self, seed, width, allow_const):
        """numpy lanes == python lanes == simulate_reference."""
        netlist = random_netlist(6, 40, seed=seed, allow_const=allow_const)
        compiled = netlist.compile()
        stimuli = dict(
            zip(
                netlist.inputs,
                random_patterns(len(netlist.inputs), width, seed),
            )
        )
        mask = (1 << width) - 1
        words = [stimuli[net] & mask for net in compiled.inputs]
        python = compiled.eval_words(words, mask)
        numpy_ = compiled.lane_program().eval_words(words, mask)
        assert numpy_ == python
        reference = simulate_reference(netlist, stimuli, width)
        for net, slot in compiled.slot_of.items():
            assert python[slot] == reference[net]

    @given(seed=st.integers(0, 10_000))
    def test_eval_batch_parity(self, seed):
        netlist = random_netlist(5, 30, seed=seed, allow_const=True)
        compiled = netlist.compile()
        import random

        rng = random.Random(seed)
        patterns = [rng.getrandbits(5) for _ in range(70)]
        assert compiled.lane_program().eval_batch(
            patterns
        ) == compiled.eval_batch(patterns, lanes="python")

    def test_every_kernel_and_nary(self):
        netlist = _nary_mux_netlist()
        compiled = netlist.compile()
        width = 200
        mask = (1 << width) - 1
        words = random_patterns(len(netlist.inputs), width, seed=7)
        assert compiled.lane_program().eval_words(
            words, mask
        ) == compiled.eval_words(list(words), mask)

    def test_eval_outputs_wide_dispatch(self):
        netlist = _nary_mux_netlist()
        compiled = netlist.compile()
        width = 130
        words = random_patterns(len(netlist.inputs), width, seed=3)
        assert compiled.eval_outputs_wide(
            words, width, lanes="numpy"
        ) == compiled.eval_outputs_wide(words, width, lanes="python")

    def test_program_is_cached(self):
        compiled = _nary_mux_netlist().compile()
        assert compiled.lane_program() is compiled.lane_program()
        assert isinstance(compiled.lane_program(), LaneProgram)


class TestStageHint:
    """The pure-python shape hint that feeds ``auto`` resolution."""

    def test_wide_vs_deep_shapes(self):
        from repro.bench_circuits.generators import (
            keyed_match_plane,
            ripple_carry_adder,
        )

        plane = keyed_match_plane(terms=64, taps=16, bus=32).compile()
        ops, stages = plane.lane_stage_hint()
        assert ops / stages > 50  # opcode-homogeneous wide planes
        adder = ripple_carry_adder(32).compile()
        a_ops, a_stages = adder.lane_stage_hint()
        assert a_ops / a_stages < 8  # deep carry chain, tiny stages
        assert plane.lane_stage_hint() is plane.lane_stage_hint()  # cached

    @needs_numpy
    def test_hint_tracks_real_stage_count(self):
        compiled = _nary_mux_netlist().compile()
        ops, stages = compiled.lane_stage_hint()
        real = len(compiled.lane_program()._stages)
        # The hint mirrors the binarizer (n-ary folds included); it is
        # allowed to drift a little on fold levels, not by shape class.
        assert abs(stages - real) <= max(2, real // 4)
        assert ops >= compiled.num_gates - sum(
            1 for g in compiled.gate_types if g.name == "BUF"
        )


class TestResolution:
    def test_default_is_auto(self):
        assert default_lanes() == "auto"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "python")
        assert default_lanes() == "python"
        assert resolve_lanes(None) == "python"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="unknown lane backend"):
            resolve_lanes("cupy")

    def test_python_always_resolves(self):
        assert resolve_lanes("python") == "python"
        assert "python" in available_lane_backends()

    @needs_numpy
    def test_auto_is_shape_aware(self):
        """numpy only for big, wide-shallow circuits at narrow widths."""
        wide_shallow = dict(
            num_gates=4 * AUTO_MIN_GATES,
            stages=(4 * AUTO_MIN_GATES) // (2 * AUTO_MIN_STAGE_OPS),
        )
        assert (
            resolve_lanes("auto", width=AUTO_MAX_LANES, **wide_shallow)
            == "numpy"
        )
        # Too wide a sweep: gathers fall out of cache, big-ints stream.
        assert (
            resolve_lanes("auto", width=AUTO_MAX_LANES + 1, **wide_shallow)
            == "python"
        )
        # Deep shape (many near-empty stages): python at any size.
        assert (
            resolve_lanes(
                "auto",
                num_gates=4 * AUTO_MIN_GATES,
                width=64,
                stages=4 * AUTO_MIN_GATES // 20,
            )
            == "python"
        )
        # Tiny circuit: python even when perfectly wide.
        assert (
            resolve_lanes(
                "auto", num_gates=AUTO_MIN_GATES - 1, width=64, stages=1
            )
            == "python"
        )
        # Unknown shape stays on the never-a-regression backend.
        assert resolve_lanes("auto") == "python"
        assert resolve_lanes("auto", num_gates=1 << 20, width=64) == "python"

    def test_auto_degrades_silently_without_numpy(self, monkeypatch):
        _hide_numpy(monkeypatch)
        assert available_lane_backends() == ("python",)
        assert resolve_lanes(
            "auto", num_gates=1 << 20, width=64, stages=4
        ) == ("python")

    def test_auto_probes_numpy_only_for_a_qualifying_shape(self, monkeypatch):
        probes = []

        def probe():
            probes.append(1)
            return True

        monkeypatch.setattr(lanes_mod, "numpy_available", probe)
        for shape in (
            {},
            dict(num_gates=100, width=64, stages=10),
            dict(num_gates=4 * AUTO_MIN_GATES, width=AUTO_MAX_LANES + 1, stages=1),
            dict(num_gates=4 * AUTO_MIN_GATES, width=64, stages=AUTO_MIN_GATES),
        ):
            assert resolve_lanes("auto", **shape) == "python"
        assert probes == []
        assert resolve_lanes(
            "auto", num_gates=4 * AUTO_MIN_GATES, width=64, stages=1
        ) == "numpy"
        assert probes == [1]

    def test_small_cells_never_import_numpy(self):
        """A scenario cell and a corruption cell on a small circuit."""
        code = (
            "import sys\n"
            "from repro.metrics.task import corruption_cell_task\n"
            "from repro.runner import task_worker\n"
            "from repro.scenarios.matrix import scenario_cell_task\n"
            "specs = (\n"
            "    scenario_cell_task('sarlock', {'key_size': 4}, 'sat', {},\n"
            "                       'sharded', 'c432', 0.12, 0, 1),\n"
            "    corruption_cell_task('sarlock', {'key_size': 4}, 'c432',\n"
            "                         0.12, 0, 1, metrics=('corruption',\n"
            "                         'bit_flip', 'avalanche', 'subspace')),\n"
            ")\n"
            "for spec in specs:\n"
            "    task_worker(spec.kind)(spec.worker_params)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC_DIR)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_explicit_numpy_raises_without_numpy(self, monkeypatch):
        _hide_numpy(monkeypatch)
        with pytest.raises(ModuleNotFoundError, match="lanes='numpy'"):
            resolve_lanes("numpy")

    def test_chunk_sizes_per_backend(self):
        # Each backend chunks at its measured throughput plateau; the
        # numpy plateau ends earlier (stage gathers fall out of cache)
        # and must never chunk wider than the python path does.
        assert 64 <= preferred_chunk_lanes("numpy") <= preferred_chunk_lanes(
            "python"
        )
        assert preferred_chunk_lanes("numpy") >= AUTO_MAX_LANES


class TestOracleChunking:
    def test_chunked_batch_matches_unchunked(self, monkeypatch):
        netlist = random_netlist(6, 40, seed=11)
        patterns = list(range(64))
        whole = Oracle(netlist).query_batch(patterns)
        monkeypatch.setitem(lanes_mod.PREFERRED_CHUNK_LANES, "python", 5)
        monkeypatch.setenv("REPRO_LANES", "python")
        oracle = Oracle(netlist)
        assert oracle.query_batch(patterns) == whole
        # Accounting stays one query per pattern, chunking or not.
        assert oracle.query_count == len(patterns)

    @needs_numpy
    def test_backends_agree_through_oracle(self, monkeypatch):
        netlist = random_netlist(6, 40, seed=12, allow_const=True)
        patterns = list(range(60))
        monkeypatch.setenv("REPRO_LANES", "numpy")
        numpy_rows = Oracle(netlist).query_batch(patterns)
        monkeypatch.setenv("REPRO_LANES", "python")
        assert numpy_rows == Oracle(netlist).query_batch(patterns)

    def test_query_vector_missing_input_message(self):
        netlist = random_netlist(4, 10, seed=1)
        oracle = Oracle(netlist)
        with pytest.raises(KeyError, match="missing value for primary input"):
            oracle.query_vector({netlist.inputs[0]: 1}, width=2)


class TestEvaluatePattern:
    """Satellite: evaluate_pattern shares the scratch/normalize path."""

    @given(seed=st.integers(0, 5_000), pattern=st.integers(0, 63))
    def test_matches_eval_single(self, seed, pattern):
        netlist = random_netlist(6, 30, seed=seed, allow_const=True)
        compiled = netlist.compile()
        bits = [(pattern >> j) & 1 for j in range(6)]
        single = compiled.eval_single(bits)
        packed = compiled.evaluate_pattern(pattern)
        for k, net in enumerate(compiled.outputs):
            assert (packed >> k) & 1 == single[net]

    def test_repeated_calls_reuse_state(self):
        compiled = _nary_mux_netlist().compile()
        first = [compiled.evaluate_pattern(p) for p in range(32)]
        second = [compiled.evaluate_pattern(p) for p in range(32)]
        assert first == second
