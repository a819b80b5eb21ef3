"""The result store's contract: round trips, sharing, crash safety.

Every cache is one flat on-disk store, ``<root>/<kind>/<sha256>.json``.
The contract runs on both ways of opening it: plainly, and with the
``backend="directory"`` argument ``perfbench/`` passes.  On top of
round trips and accounting it pins what shared stores depend on:
concurrent writers racing one content hash never corrupt it, and torn
files read as misses, never exceptions.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.runner import ResultCache, TaskSpec
from repro.runner.backends import resolve_cache_backend_name

#: The two ways to open the one store, by test id.
OPENINGS = {"default": {}, "directory": {"backend": "directory"}}

BY_OPENING = pytest.mark.parametrize("opening", list(OPENINGS))


def _spec(value: int) -> TaskSpec:
    return TaskSpec("_bk_test", {"value": value})


def _cache(root, opening: str = "default") -> ResultCache:
    return ResultCache(root, **OPENINGS[opening])


class TestBackendShim:
    """What is left of the backend choice, kept for ``perfbench/``."""

    def test_only_directory_is_accepted(self, tmp_path):
        assert _cache(tmp_path, "directory").root == tmp_path
        for name in ("sharded", "memory", "nope"):
            with pytest.raises(ValueError, match=f"unknown cache backend '{name}'"):
                ResultCache(tmp_path, backend=name)

    def test_stamp_names_the_one_store(self):
        assert resolve_cache_backend_name() == "directory"
        assert resolve_cache_backend_name(None) == "directory"


@BY_OPENING
class TestBackendConformance:
    """One behaviour, whichever way the store is opened."""

    def test_round_trip_and_accounting(self, tmp_path, opening):
        cache = _cache(tmp_path / "store", opening)
        spec = _spec(1)
        assert cache.load(spec) is None
        cache.store(spec, {"doubled": 2}, elapsed_seconds=0.25)
        entry = cache.load(spec)
        assert entry["artifact"] == {"doubled": 2}
        assert entry["elapsed_seconds"] == 0.25
        assert cache.hits == 1 and cache.misses == 1

    def test_clear_and_counts_by_kind(self, tmp_path, opening):
        cache = _cache(tmp_path / "store", opening)
        cache.store(_spec(1), {}, 0.0)
        cache.store(_spec(2), {}, 0.0)
        cache.store(TaskSpec("_bk_other", {"v": 1}), {}, 0.0)
        assert cache.kinds() == ["_bk_other", "_bk_test"]
        assert cache.entry_count() == 3
        assert cache.entry_count(kind="_bk_test") == 2
        assert cache.clear(kind="_bk_test") == 2
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert cache.kinds() == []

    def test_two_instances_share_one_store(self, tmp_path, opening):
        """Two ResultCache objects over one root = two daemons."""
        writer = _cache(tmp_path / "store", opening)
        reader = _cache(tmp_path / "store")
        spec = _spec(7)
        writer.store(spec, {"doubled": 14}, elapsed_seconds=0.1)
        entry = reader.load(spec)
        assert entry is not None and entry["artifact"] == {"doubled": 14}

    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path, opening):
        """N threads race store+load on one content hash.

        The contract under contention: every load returns ``None`` or a
        complete, valid entry — never a torn one — and once the dust
        settles the entry is fully readable.
        """
        caches = [_cache(tmp_path / "store", opening) for _ in range(4)]
        spec = _spec(99)
        start = threading.Barrier(len(caches))
        failures: list[str] = []

        def hammer(cache: ResultCache) -> None:
            start.wait(timeout=30)
            for round_no in range(25):
                cache.store(spec, {"round": round_no}, elapsed_seconds=0.0)
                entry = cache.load(spec)
                if entry is not None and "artifact" not in entry:
                    failures.append(f"torn entry observed: {entry!r}")

        threads = [
            threading.Thread(target=hammer, args=(cache,)) for cache in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures
        final = caches[0].load(spec)
        assert final is not None and "round" in final["artifact"]


class TestOnDiskLayouts:
    def test_directory_layout_is_flat(self, tmp_path):
        cache = _cache(tmp_path)
        spec = _spec(3)
        path = cache.store(spec, {"doubled": 6}, elapsed_seconds=0.0)
        assert path == tmp_path / "_bk_test" / f"{spec.cache_key}.json"
        assert path == cache.path_for(spec) and path.is_file()

    @BY_OPENING
    def test_torn_file_is_a_miss_then_overwritten(self, tmp_path, opening):
        cache = _cache(tmp_path, opening)
        spec = _spec(5)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text('{"version": 1, "artifact": {"dou')  # torn write
        assert cache.load(spec) is None  # miss, not an exception
        cache.store(spec, {"doubled": 10}, elapsed_seconds=0.0)
        assert cache.load(spec)["artifact"] == {"doubled": 10}

    @BY_OPENING
    def test_wrong_format_version_is_a_miss(self, tmp_path, opening):
        cache = _cache(tmp_path, opening)
        spec = _spec(6)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": 999, "artifact": {}}))
        assert cache.load(spec) is None

    def test_store_writes_the_sorted_indented_entry(self, tmp_path, monkeypatch):
        """The file is ``json.dumps(entry, indent=1, sort_keys=True)``,
        byte for byte: what ``json.dump`` wrote, in one write."""
        from types import SimpleNamespace

        from repro.runner import cache as cache_module
        from repro.runner.task import CACHE_FORMAT_VERSION

        monkeypatch.setattr(
            cache_module, "time", SimpleNamespace(time=lambda: 1700000000.25)
        )
        spec = _spec(7)
        artifact = {"z": [1, 2.5, None], "a": {"n\u00e9t": True, "b": "x"}}
        path = _cache(tmp_path).store(spec, artifact, elapsed_seconds=0.125)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "kind": spec.kind,
            "key": spec.cache_key,
            "params": spec.params,
            "elapsed_seconds": 0.125,
            "created_unix": 1700000000.25,
            "artifact": artifact,
        }
        assert path.read_text(encoding="utf-8") == json.dumps(
            entry, indent=1, sort_keys=True
        )

    def test_no_temp_droppings_after_stores(self, tmp_path):
        cache = _cache(tmp_path)
        for value in range(5):
            cache.store(_spec(value), {"doubled": value * 2}, 0.0)
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_clear_reaps_temp_droppings_without_counting_them(self, tmp_path):
        cache = _cache(tmp_path)
        cache.store(_spec(1), {}, 0.0)
        orphan = tmp_path / "_bk_test" / ".tmp-killed.json"
        orphan.write_text("{")
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert not orphan.exists()


class TestCacheInfo:
    def test_cache_info_counts_by_kind(self, tmp_path, capsys):
        cache = _cache(tmp_path)
        for value in range(3):
            cache.store(_spec(value), {"doubled": value * 2}, 0.0)
        cache.store(TaskSpec("_bk_other", {"v": 1}), {}, 0.0)
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"cache dir: {tmp_path}",
            "  _bk_other: 1 artifact(s)",
            "  _bk_test: 3 artifact(s)",
        ]

    def test_cache_backend_flag_is_gone(self, tmp_path, capsys):
        """There is one store, so argparse rejects ``--cache-backend``."""
        with pytest.raises(SystemExit) as exit_info:
            main([
                "cache", "info", "--cache-dir", str(tmp_path),
                "--cache-backend", "directory",
            ])
        assert exit_info.value.code == 2
        assert "--cache-backend" in capsys.readouterr().err
