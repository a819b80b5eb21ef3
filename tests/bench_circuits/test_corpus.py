"""Corpus tests: registration round-trip, shipped files, attack smoke.

The loader round-trip covers the whole naming pipeline the ISSUE asks
for — parse a ``.bench`` file, fingerprint it, register it, and
evaluate a scenario-matrix cell addressed by the registered name —
plus the shipped ``real_c432`` runs a genuine lock + SAT-attack + CEC
flow mirroring how the related repos drive real ISCAS netlists.
"""

import pytest

from repro.bench_circuits import ISCAS85_PROFILES, corpus
from repro.bench_circuits.corpus import (
    CorpusError,
    circuit_names,
    corpus_entry,
    corpus_names,
    known_circuit,
    load_corpus,
    register_corpus_file,
    resolve_circuit,
)
from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.gates import GateType
from repro.circuit.random_circuits import random_netlist
from repro.core.compose import verify_composition
from repro.core.multikey import multikey_attack
from repro.locking.registry import lock_circuit
from repro.oracle.oracle import Oracle
from repro.scenarios import ScenarioSpec, run_matrix

SHIPPED = ("real_c432", "real_c499", "real_c880")


class TestShippedCorpus:
    def test_registered_at_import(self):
        assert set(SHIPPED) <= set(corpus_names())

    @pytest.mark.parametrize("name", SHIPPED)
    def test_matches_published_profile(self, name):
        """Each reconstruction matches its namesake's published PI/PO/gates."""
        entry = corpus_entry(name)
        published = ISCAS85_PROFILES[name.removeprefix("real_")]
        assert entry.profile() == {
            "pi": published["pi"],
            "po": published["po"],
            "gates": published["gates"],
        }

    @pytest.mark.parametrize("name", SHIPPED)
    def test_load_is_fresh_and_hash_stable(self, name):
        entry = corpus_entry(name)
        first, second = load_corpus(name), load_corpus(name)
        assert first is not second
        assert first.compile().content_hash() == entry.content_hash
        assert second.compile().content_hash() == entry.content_hash

    def test_names_resolve_like_stand_ins(self):
        for name in SHIPPED:
            assert known_circuit(name)
            assert resolve_circuit(name).num_gates == corpus_entry(
                name
            ).num_gates
        assert known_circuit("c432")  # stand-ins still resolve
        assert not known_circuit("c9999")
        assert set(SHIPPED) <= set(circuit_names())

    @pytest.mark.parametrize(
        ("name", "scale"), [("real_c432", 1.0), ("c432", 0.25)]
    )
    def test_resolved_copies_do_not_share_mutation(self, name, scale):
        """Resolves share one compiled form, never one netlist."""
        first = resolve_circuit(name, scale)
        expected = first.compile().content_hash()
        gates = first.num_gates
        first.add_gate("extra", GateType.NOT, [first.inputs[0]])
        first.add_output("extra")
        assert first.compile().content_hash() != expected
        second = resolve_circuit(name, scale)
        assert second is not first
        assert second.num_gates == gates
        assert second.compile().content_hash() == expected

    def test_scale_ignored_for_corpus(self):
        assert (
            resolve_circuit("real_c432", scale=0.25).num_gates
            == resolve_circuit("real_c432", scale=1.0).num_gates
        )
        # ... but still applied to stand-ins.
        small = resolve_circuit("c432", scale=0.25)
        full = resolve_circuit("c432", scale=1.0)
        assert small.num_gates < full.num_gates


class TestRegistration:
    @pytest.fixture(autouse=True)
    def _scratch_registry(self, monkeypatch):
        """Names registered here vanish after each test, so the corpus
        doctest (and anything else run later) sees only the shipped
        files."""
        monkeypatch.setattr(corpus, "_REGISTRY", dict(corpus._REGISTRY))

    def _write(self, tmp_path, name, seed=5):
        netlist = random_netlist(5, 25, seed=seed)
        path = tmp_path / f"{name}.bench"
        path.write_text(format_bench(netlist))
        return path

    def test_round_trip_parse_hash_registry_matrix_cell(self, tmp_path):
        """The full pipeline: file -> hash -> registry -> matrix cell."""
        path = self._write(tmp_path, "user_circ")
        entry = register_corpus_file(path, source="test")
        # Parse and hash agree with a manual parse of the same text.
        manual = parse_bench(path.read_text(), name="user_circ")
        assert entry.content_hash == manual.compile().content_hash()
        assert entry.name == "user_circ"
        assert (entry.num_inputs, entry.num_outputs) == (
            len(manual.inputs),
            len(manual.outputs),
        )
        # The registered name is a first-class matrix circuit.
        spec = ScenarioSpec(
            schemes=[("xor", {"key_size": 3})],
            attacks=["sat"],
            engines=["reference"],
            circuits=["user_circ"],
            efforts=[1],
            seeds=[0],
        )
        result = run_matrix(spec)
        assert [cell.status for cell in result.cells] == ["ok"]
        assert result.cells[0].circuit == "user_circ"

    def test_idempotent_reregistration(self, tmp_path):
        path = self._write(tmp_path, "idem")
        assert register_corpus_file(path) == register_corpus_file(path)

    def test_name_conflict_with_different_content(self, tmp_path):
        register_corpus_file(self._write(tmp_path, "clash", seed=1))
        (tmp_path / "sub").mkdir(exist_ok=True)
        other = self._write(tmp_path / "sub", "clash", seed=2)
        with pytest.raises(CorpusError, match="different content"):
            register_corpus_file(other)

    def test_stand_in_names_are_reserved(self, tmp_path):
        path = self._write(tmp_path, "c432")
        with pytest.raises(CorpusError, match="stand-in"):
            register_corpus_file(path)
        path17 = self._write(tmp_path, "c17")
        with pytest.raises(CorpusError, match="stand-in"):
            register_corpus_file(path17)

    def test_edited_file_fails_loudly_on_load(self, tmp_path):
        path = self._write(tmp_path, "editme")
        register_corpus_file(path)
        netlist = random_netlist(5, 26, seed=9)
        path.write_text(format_bench(netlist))
        with pytest.raises(CorpusError, match="changed on disk"):
            load_corpus("editme")

    def test_edited_file_fails_loudly_on_resolve(self, tmp_path):
        """The resolve memo keys on file text: an edit after a memoized
        resolve is parsed again and fails the content-hash check."""
        path = self._write(tmp_path, "editme_resolved")
        register_corpus_file(path)
        assert resolve_circuit("editme_resolved").num_gates == 25
        path.write_text(format_bench(random_netlist(5, 26, seed=9)))
        with pytest.raises(CorpusError, match="changed on disk"):
            resolve_circuit("editme_resolved")

    def test_unknown_names_list_choices(self):
        with pytest.raises(CorpusError, match="real_c432"):
            corpus_entry("nope")
        with pytest.raises(CorpusError, match="unknown circuit"):
            resolve_circuit("nope")

    def test_spec_validates_circuit_names(self):
        with pytest.raises(ValueError, match="unknown circuit"):
            ScenarioSpec(
                schemes=["xor"],
                attacks=["sat"],
                engines=["reference"],
                circuits=["not_a_circuit"],
                efforts=[1],
                seeds=[0],
            )


class TestRealC432AttackSmoke:
    """Lock the genuine-format c432 and break it, end to end."""

    def test_lock_attack_verify(self):
        original = load_corpus("real_c432")
        locked = lock_circuit("xor", original, key_size=4, seed=3)
        result = multikey_attack(locked, original, effort=1, seed=3)
        assert result.status == "ok"
        assert result.subtasks
        # The paper's success criterion: the MUX composition of the
        # recovered sub-space keys is equivalent to the original.
        assert verify_composition(
            locked, result.splitting_inputs, result.keys, original
        )

    def test_oracle_on_real_circuit(self):
        original = load_corpus("real_c432")
        oracle = Oracle(original)
        patterns = list(range(8))
        assert oracle.query_batch(patterns) == [
            oracle.query_int(p) for p in patterns
        ]
        assert oracle.query_count == 16
