"""Cache storage seam tests: backend conformance, sharing, crash safety.

The same conformance suite runs against every registered backend —
that is the seam's contract: ``ResultCache`` behaves identically no
matter where the bytes live.  On top of that, the on-disk flavours get
the properties shared stores actually depend on: concurrent writers
racing one content hash never corrupt it, and torn files read as
misses, never exceptions.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.levers import CACHE_BACKEND
from repro.runner import (
    ResultCache,
    TaskSpec,
    cache_backend_info,
    create_cache_backend,
    register_cache_backend,
    registered_cache_backends,
)
from repro.runner.backends import CacheBackend

BACKENDS = ("directory", "sharded", "memory")


def _spec(value: int) -> TaskSpec:
    return TaskSpec("_bk_test", {"value": value})


class TestRegistry:
    def test_shipped_roster(self):
        assert set(BACKENDS) <= set(registered_cache_backends())
        assert CACHE_BACKEND.default == "directory"

    def test_unknown_backend_fails_with_roster(self):
        with pytest.raises(ValueError, match="registered: .*sharded"):
            cache_backend_info("nope")

    def test_env_var_sets_process_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sharded")
        cache = ResultCache(tmp_path)
        assert cache.describe().startswith("sharded")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_cache_backend("directory")(object)

    def test_instances_satisfy_protocol(self, tmp_path):
        for name in BACKENDS:
            assert isinstance(
                create_cache_backend(name, root=tmp_path / name), CacheBackend
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendConformance:
    """One behaviour, three stores."""

    def _cache(self, tmp_path, backend: str) -> ResultCache:
        return ResultCache(tmp_path / "store", backend=backend)

    def test_round_trip_and_accounting(self, tmp_path, backend):
        cache = self._cache(tmp_path, backend)
        spec = _spec(1)
        assert cache.load(spec) is None
        cache.store(spec, {"doubled": 2}, elapsed_seconds=0.25)
        entry = cache.load(spec)
        assert entry["artifact"] == {"doubled": 2}
        assert entry["elapsed_seconds"] == 0.25
        assert cache.hits == 1 and cache.misses == 1

    def test_clear_and_counts_by_kind(self, tmp_path, backend):
        cache = self._cache(tmp_path, backend)
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

    def test_two_instances_share_one_store(self, tmp_path, backend):
        """Two ResultCache objects over one backend = two daemons."""
        if backend == "memory":
            shared = create_cache_backend("memory")
            writer = ResultCache(backend=shared)
            reader = ResultCache(backend=shared)
        else:
            writer = self._cache(tmp_path, backend)
            reader = self._cache(tmp_path, backend)
        spec = _spec(7)
        writer.store(spec, {"doubled": 14}, elapsed_seconds=0.1)
        entry = reader.load(spec)
        assert entry is not None and entry["artifact"] == {"doubled": 14}

    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path, backend):
        """N threads race store+load on one content hash.

        The contract under contention: every load returns ``None`` or a
        complete, valid entry — never a torn one — and once the dust
        settles the entry is fully readable.
        """
        if backend == "memory":
            shared = create_cache_backend("memory")
            caches = [ResultCache(backend=shared) for _ in range(4)]
        else:
            caches = [self._cache(tmp_path, backend) for _ in range(4)]
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
        cache = ResultCache(tmp_path, backend="directory")
        spec = _spec(3)
        path = cache.store(spec, {"doubled": 6}, elapsed_seconds=0.0)
        assert path == tmp_path / "_bk_test" / f"{spec.cache_key}.json"
        assert path.is_file()

    def test_sharded_layout_fans_out_by_hash_prefix(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sharded")
        spec = _spec(3)
        path = cache.store(spec, {"doubled": 6}, elapsed_seconds=0.0)
        key = spec.cache_key
        assert path == tmp_path / "_bk_test" / key[:2] / f"{key}.json"
        assert path.is_file()
        assert cache.load(spec)["artifact"] == {"doubled": 6}

    @pytest.mark.parametrize("backend", ["directory", "sharded"])
    def test_torn_file_is_a_miss_then_overwritten(self, tmp_path, backend):
        cache = ResultCache(tmp_path, backend=backend)
        spec = _spec(5)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text('{"version": 1, "artifact": {"dou')  # torn write
        assert cache.load(spec) is None  # miss, not an exception
        cache.store(spec, {"doubled": 10}, elapsed_seconds=0.0)
        assert cache.load(spec)["artifact"] == {"doubled": 10}

    @pytest.mark.parametrize("backend", ["directory", "sharded"])
    def test_wrong_format_version_is_a_miss(self, tmp_path, backend):
        cache = ResultCache(tmp_path, backend=backend)
        spec = _spec(6)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"version": 999, "artifact": {}}))
        assert cache.load(spec) is None

    def test_no_temp_droppings_after_stores(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sharded")
        for value in range(5):
            cache.store(_spec(value), {"doubled": value * 2}, 0.0)
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestCacheInfoParity:
    def test_cache_info_output_identical_across_disk_backends(
        self, tmp_path, capsys
    ):
        """`repro cache info` is layout-agnostic: same contents, same text."""
        outputs = {}
        for backend in ("directory", "sharded"):
            root = tmp_path / backend
            cache = ResultCache(root, backend=backend)
            for value in range(3):
                cache.store(_spec(value), {"doubled": value * 2}, 0.0)
            cache.store(TaskSpec("_bk_other", {"v": 1}), {}, 0.0)
            main(
                [
                    "cache",
                    "info",
                    "--cache-dir",
                    str(root),
                    "--cache-backend",
                    backend,
                ]
            )
            out = capsys.readouterr().out
            # The header names the root (which differs by construction);
            # everything below it — kinds, counts, totals — must match.
            outputs[backend] = out.splitlines()[1:]
            assert str(root) in out.splitlines()[0]
        assert outputs["directory"] == outputs["sharded"]

    def test_cache_info_unknown_backend_exits_with_roster(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "cache",
                    "info",
                    "--cache-dir",
                    str(tmp_path),
                    "--cache-backend",
                    "bogus",
                ]
            )
